package main

import (
	"context"
	"net"
	"time"

	"autoindex/internal/btree"
	"autoindex/internal/controlplane"
	"autoindex/internal/core"
	"autoindex/internal/costcache"
	"autoindex/internal/dropper"
	"autoindex/internal/engine"
	"autoindex/internal/fleet"
	"autoindex/internal/metrics"
	"autoindex/internal/optimizer"
	"autoindex/internal/querystore"
	"autoindex/internal/recommend/dta"
	"autoindex/internal/recommend/mi"
	"autoindex/internal/schema"
	"autoindex/internal/serve"
	"autoindex/internal/sim"
	"autoindex/internal/snap"
	"autoindex/internal/sqlparser"
	"autoindex/internal/storage"
	"autoindex/internal/telemetry"
	"autoindex/internal/validate"
	"autoindex/internal/value"
	"autoindex/internal/wire"
	"autoindex/internal/workload"
)

// This file is the list of exported entry points the benchmark calls,
// each pinned to the signature it is called with. It generates no code.
//
// A change that claims a performance gain may not edit bench/, so it has
// to keep these signatures: if this file stops compiling, the change has
// moved an entry point the benchmark drives the system through. Either
// keep the old signature (a thin wrapper is enough), or land the
// signature change first as a benchmark change of its own, which claims
// no gain and after which the baseline is measured again.
//
// Besides these functions the benchmark reads the exported fields of
// workload.Tenant (DB, Tables, Templates, Profile), workload.Template
// (Name, Weight, Gen), workload.TableSpec (Name, Rows), engine.Result,
// fleet.Spec, fleet.OpsConfig, fleet.OpsHooks, fleet.OpsResult,
// fleet.ScaleSpec, fleet.ScaleResult, controlplane.Config,
// controlplane.OperationalStats, controlplane.Record, dta.Options and
// dta.Result, and implements controlplane.Store by embedding.
var (
	// Tenants and their statement generator.
	_ func(workload.Profile, sim.Clock) (*workload.Tenant, error)                   = workload.NewTenant
	_ func(workload.Profile, sim.Clock) (*workload.Archetype, error)                = workload.NewArchetype
	_ func(*workload.Archetype, string, int64, sim.Clock) (*workload.Tenant, error) = workload.NewTenantFromArchetype
	_ func(*workload.Tenant) string                                                 = (*workload.Tenant).Statement
	_ func(*workload.Tenant, int) []string                                          = (*workload.Tenant).Stream
	_ func(*workload.Tenant, time.Duration, int) workload.RunStats                  = (*workload.Tenant).Run
	_ func(*workload.Tenant, *snap.Writer)                                          = (*workload.Tenant).EncodeTo
	_ func(*workload.Tenant, *snap.Reader) error                                    = (*workload.Tenant).DecodeFrom
	_ func(*workload.Tenant)                                                        = (*workload.Tenant).Release
	_ func() *sim.VirtualClock                                                      = sim.NewClock
	_ func(int64, string) *sim.RNG                                                  = sim.TenantRNG
	_ func(*sim.RNG, string) *sim.RNG                                               = (*sim.RNG).Child
	_ func(*sim.RNG) float64                                                        = (*sim.RNG).Float64

	// The engine.
	_ func(*engine.Database, string) (*engine.Result, error)                                             = (*engine.Database).Exec
	_ func(*engine.Database, string, engine.ExecOptions) (*engine.Result, error)                         = (*engine.Database).ExecWith
	_ func(*engine.Database, sqlparser.Statement, engine.ExecOptions) (*engine.Result, error)            = (*engine.Database).ExecStmtWith
	_ func(*engine.Database, string) int64                                                               = (*engine.Database).RowCount
	_ func(*engine.Database) *querystore.Store                                                           = (*engine.Database).QueryStore
	_ func(*engine.Database) *costcache.Cache                                                            = (*engine.Database).PlanCostCache
	_ func(*engine.Database, *metrics.Registry)                                                          = (*engine.Database).SetMetrics
	_ func(*engine.Database, string) *engine.Database                                                    = (*engine.Database).Clone
	_ func(*engine.Database, schema.IndexDef, engine.IndexBuildOptions) (engine.IndexBuildReport, error) = (*engine.Database).CreateIndexWithReport
	_ func(*engine.Database)                                                                             = (*engine.Database).Park
	_ func(*engine.Database)                                                                             = (*engine.Database).Failover
	_ func(*engine.Database) engine.Tier                                                                 = (*engine.Database).Tier
	_ func(*engine.Database) string                                                                      = (*engine.Database).Name
	_ func(*engine.Database) sim.Clock                                                                   = (*engine.Database).Clock
	_ func(*engine.Database, string) *sim.RNG                                                            = (*engine.Database).DeriveRNG
	_ func(*costcache.Cache)                                                                             = (*costcache.Cache).Reset
	_ *metrics.Desc                                                                                      = costcache.DescHits
	_ *metrics.Desc                                                                                      = costcache.DescMisses
	_ *metrics.Desc                                                                                      = costcache.DescInvalidationsData
	_ func() *metrics.Registry                                                                           = metrics.NewRegistry
	_ func(*metrics.Registry, *metrics.Desc) *metrics.Counter                                            = (*metrics.Registry).Counter
	_ func(*metrics.Counter) int64                                                                       = (*metrics.Counter).Value

	// The layers a statement crosses, called one at a time by the traced pass.
	_ func(string) (sqlparser.Statement, error)                                                          = sqlparser.Parse
	_ func(sqlparser.Statement) bool                                                                     = sqlparser.IsWrite
	_ func(*optimizer.Optimizer, sqlparser.Statement) (*optimizer.Plan, error)                           = (*optimizer.Optimizer).Plan
	_ func(sim.Clock, time.Duration) *querystore.Store                                                   = querystore.New
	_ func(*querystore.Store, uint64, querystore.QueryMeta, querystore.PlanInfo, querystore.Measurement) = (*querystore.Store).Record
	_ func(*querystore.Store) int                                                                        = (*querystore.Store).Len
	_ func(*querystore.Store) time.Duration                                                              = (*querystore.Store).Interval
	_ func(*querystore.Store, time.Time, int, querystore.CompressionOptions) []querystore.WeightedQuery  = (*querystore.Store).CompressedTopByCPU
	_ func(int) *btree.Tree                                                                              = btree.New
	_ func(*btree.Tree, value.Key, value.Row) bool                                                       = (*btree.Tree).Insert
	_ func(*btree.Tree, value.Key) (value.Row, bool)                                                     = (*btree.Tree).Get
	_ func(*btree.Tree, value.Key, bool, value.Key, bool) *btree.Iterator                                = (*btree.Tree).Seek
	_ func(*btree.Iterator) (btree.Entry, bool)                                                          = (*btree.Iterator).Next
	_ func(int) *storage.Heap                                                                            = storage.NewHeap
	_ func(*storage.Heap, value.Row) storage.RID                                                         = (*storage.Heap).Insert
	_ func(*storage.Heap, func(storage.RID, value.Row) bool)                                             = (*storage.Heap).Scan

	// The wire front end.
	_ func(serve.Config) *serve.Server                           = serve.New
	_ func(*serve.Server, net.Listener) error                    = (*serve.Server).Serve
	_ func(*serve.Server, context.Context) error                 = (*serve.Server).Shutdown
	_ func(string, string, string, string) (*wire.Client, error) = wire.Dial
	_ func(*wire.Client, string) (*wire.Result, error)           = (*wire.Client).Query
	_ func(*wire.Client, string) (*wire.Stmt, error)             = (*wire.Client).Prepare
	_ func(*wire.Client) error                                   = (*wire.Client).Ping
	_ func(*wire.Client) error                                   = (*wire.Client).Close
	_ func(*wire.Stmt, ...any) (*wire.Result, error)             = (*wire.Stmt).Execute
	_ func(*wire.Stmt) error                                     = (*wire.Stmt).Close
	_ func(net.Conn) *wire.Conn                                  = wire.NewConn
	_ func(*wire.Conn, []byte) error                             = (*wire.Conn).WritePacket
	_ func(wire.Column) []byte                                   = wire.EncodeColumn
	_ func([]value.Value) []byte                                 = wire.EncodeTextRow
	_ func([]wire.Column, []value.Value) []byte                  = wire.EncodeBinaryRow
	_ func(value.Kind) byte                                      = wire.TypeForKind

	// Fleets, the control plane and the recommenders.
	_ func(fleet.Spec) (*fleet.Fleet, error)                                                              = fleet.Build
	_ func(*fleet.Fleet, fleet.Spec, fleet.OpsConfig) (*fleet.OpsResult, error)                           = (*fleet.Fleet).RunOps
	_ func(*fleet.Fleet, time.Duration)                                                                   = (*fleet.Fleet).AdvanceLive
	_ func() fleet.OpsConfig                                                                              = fleet.DefaultOpsConfig
	_ func(*fleet.OpsResult) string                                                                       = (*fleet.OpsResult).Report
	_ func(*fleet.OpsResult) string                                                                       = (*fleet.OpsResult).RevertReport
	_ func(int, int) fleet.ScaleSpec                                                                      = fleet.DefaultScaleSpec
	_ func(fleet.ScaleSpec) (*fleet.ScaleResult, error)                                                   = fleet.RunScale
	_ func(*fleet.ScaleResult) string                                                                     = (*fleet.ScaleResult).Report
	_ func(controlplane.Config, sim.Clock, controlplane.Store, *telemetry.Hub) *controlplane.ControlPlane = controlplane.New
	_ func() controlplane.Config                                                                          = controlplane.DefaultConfig
	_ func() *controlplane.MemStore                                                                       = controlplane.NewMemStore
	_ func(string) (*controlplane.FileStore, error)                                                       = controlplane.NewFileStore
	_ func(*controlplane.FileStore) string                                                                = (*controlplane.FileStore).Path
	_ func(*controlplane.ControlPlane, *engine.Database, string, controlplane.Settings)                   = (*controlplane.ControlPlane).Manage
	_ func(*controlplane.ControlPlane)                                                                    = (*controlplane.ControlPlane).Step
	_ func(*controlplane.ControlPlane) controlplane.OperationalStats                                      = (*controlplane.ControlPlane).OpStats
	_ func(*controlplane.ControlPlane) controlplane.Store                                                 = (*controlplane.ControlPlane).StateStore
	_ func(controlplane.Store, func(*controlplane.Record) bool) []*controlplane.Record                    = controlplane.Store.Records
	_ func(controlplane.OperationalStats) string                                                          = controlplane.OperationalStats.String
	_ func(*engine.Database, dta.Options) (*dta.Result, error)                                            = dta.Run
	_ func(engine.Tier) dta.Options                                                                       = dta.OptionsForTier
	_ func(*engine.Database, mi.Config) *mi.Recommender                                                   = mi.New
	_ func() mi.Config                                                                                    = mi.DefaultConfig
	_ func(*mi.Recommender)                                                                               = (*mi.Recommender).TakeSnapshot
	_ func(*mi.Recommender) []core.Candidate                                                              = (*mi.Recommender).Recommend
	_ func(*engine.Database, time.Time, dropper.Config) []dropper.DropCandidate                           = dropper.Analyze
	_ func() dropper.Config                                                                               = dropper.DefaultConfig
	_ func(*querystore.Store, string, bool, time.Time, time.Duration, validate.Config) validate.Outcome   = validate.Validate

	// Snapshots.
	_ func(*snap.Writer) []byte          = (*snap.Writer).Seal
	_ func([]byte) (*snap.Reader, error) = snap.Open
	_ func(*snap.Reader) error           = (*snap.Reader).Done
)

package main

import (
	"fmt"
	"net"
	"runtime"

	"autoindex/internal/btree"
	"autoindex/internal/costcache"
	"autoindex/internal/engine"
	"autoindex/internal/metrics"
	"autoindex/internal/optimizer"
	"autoindex/internal/querystore"
	"autoindex/internal/sim"
	"autoindex/internal/sqlparser"
	"autoindex/internal/storage"
	"autoindex/internal/value"
	"autoindex/internal/wire"
)

// buildTwin returns a freshly built tenant and the statement stream for
// it. Every pass of the serving probe runs on its own twin, so each sees
// the same statements against the same data (inserts cannot be replayed
// into a tenant that already holds them).
type buildTwin func() (*serveInput, error)

// countingConn is the in-memory connection result sets are encoded
// into: it keeps the byte count and discards the bytes.
type countingConn struct {
	net.Conn // nil: only Write is ever called
	n        int64
}

func (c *countingConn) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// probeServing measures the serving stack layer by layer on the twins
// the builders make, and adds the per-layer metrics to o.
//
//	pass 1  in process, untraced: the reference latency, exact allocation
//	pass 2  in process, one request span per statement with child spans
//	pass 3  over the wire, one connection
//	pass 4  over the wire, serveConns connections
func probeServing(o *outcome, tr *tracer, twins []buildTwin, p params) (overheadPct float64, err error) {
	var (
		stmts, failed          int64
		inprocNs, tracedNs     int64
		rows, reads            float64
		alloc                  allocMeter
		entries, invalidated   int64
		wire1Ns, wire1Ops      int64
		rate1, rate2           []float64
		pingUs, prepUs, textUs []float64
		largest, wireBytes     int64
	)
	for _, build := range twins {
		// Pass 1.
		in, err := build()
		if err != nil {
			return 0, err
		}
		reg := metrics.NewRegistry()
		in.tenants[0].DB.SetMetrics(reg)
		for _, ts := range in.tenants[0].Tables {
			if n := in.tenants[0].DB.RowCount(ts.Name); n > largest {
				largest = n
			}
		}
		runtime.GC()
		meter := startAllocMeter()
		pass := startTimer()
		for i := range in.stmts {
			res, err := in.tenants[0].DB.ExecWith(in.stmts[i].text(), engine.ExecOptions{LiveCapture: true})
			if err != nil {
				failed++
				o.problem("in-process %.60s: %v", in.stmts[i].text(), err)
				continue
			}
			rows += float64(len(res.Rows))
			reads += res.Measured.LogicalReads
		}
		inprocNs += pass.ns()
		d := meter.delta()
		alloc.bytes += d.bytes
		alloc.objects += d.objects
		stmts += int64(len(in.stmts))
		entries += int64(in.tenants[0].DB.QueryStore().Len())
		invalidated += reg.Counter(costcache.DescInvalidationsData).Value()

		// Pass 2.
		if in, err = build(); err != nil {
			return 0, err
		}
		pass = startTimer()
		encoded, err := tracedStatements(tr, in)
		if err != nil {
			return 0, err
		}
		tracedNs += pass.ns()
		wireBytes += encoded

		// Pass 3, with the round trip and the prepared-statement overhead
		// measured on the same connection before it.
		if in, err = build(); err != nil {
			return 0, err
		}
		srv, err := startServer(in.tenants)
		if err != nil {
			return 0, err
		}
		ping, prep, text, err := probeConnection(srv.addr, in)
		if err == nil {
			pingUs, prepUs, textUs = append(pingUs, ping...), append(prepUs, prep...), append(textUs, text...)
			var run *wireRun
			if run, err = runWire(srv.addr, in, 1); err == nil {
				failed += run.failed
				for _, op := range run.ops {
					wire1Ns += op.lat
				}
				wire1Ops += int64(len(run.ops))
				rate1 = append(rate1, perSecond(int64(len(run.ops)), run.wallNs))
			}
		}
		if stopErr := srv.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return 0, err
		}

		// Pass 4.
		if in, err = build(); err != nil {
			return 0, err
		}
		if srv, err = startServer(in.tenants); err != nil {
			return 0, err
		}
		run, err := runWire(srv.addr, in, serveConns)
		if err == nil {
			failed += run.failed
			rate2 = append(rate2, perSecond(int64(len(run.ops)), run.wallNs))
		}
		if stopErr := srv.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return 0, err
		}
	}
	if stmts == 0 || wire1Ops == 0 {
		return 0, fmt.Errorf("serving probe ran no statements")
	}

	lt := selfTimes(tr.spans)
	n := int(stmts)
	perStmt := func(name string) float64 { return meanMicros(lt.Total[name], stmts) }
	inproc := meanMicros(inprocNs, stmts)
	wireMean := meanMicros(wire1Ns, wire1Ops)
	o.add("wire.roundtrip_us", median(pingUs), len(pingUs))
	encodedRows := lt.Count["wire.row"]
	if encodedRows == 0 {
		encodedRows = 1
	}
	o.add("wire.encode_us_per_row", meanMicros(lt.Total["wire.encode"], encodedRows), int(encodedRows))
	o.add("wire.bytes_per_stmt", float64(wireBytes)/float64(stmts), n)
	o.add("serve.frontend_us", wireMean-inproc, int(wire1Ops))
	o.add("serve.prepared_overhead_us", median(prepUs)-median(textUs), len(prepUs))
	o.add("serve.conn_scaling", median(rate2)/median(rate1), len(rate2))
	o.add("sqlparser.parse_us", perStmt("sqlparser.parse"), n)
	o.add("sqlparser.fingerprint_us", perStmt("sqlparser.fingerprint"), n)
	o.add("optimizer.plan_us", perStmt("optimizer.plan"), n)
	o.add("engine.exec_us", perStmt("engine.exec"), n)
	// Derived, not measured: planning and Query Store capture happen
	// inside ExecStmtWith, so their stand-alone timings are subtracted.
	o.add("engine.exec_self_us", perStmt("engine.exec")-perStmt("optimizer.plan")-perStmt("querystore.record"), n)
	o.add("engine.alloc_kb_per_stmt", bytesToKB(alloc.bytes)/float64(stmts), n)
	o.add("engine.allocs_per_stmt", float64(alloc.objects)/float64(stmts), n)
	o.add("engine.rows_per_stmt", rows/float64(stmts), n)
	o.add("engine.reads_per_row", reads/max(1, rows), n)
	o.add("querystore.record_us", perStmt("querystore.record"), n)
	o.add("querystore.entries", float64(entries), len(twins))
	o.add("costcache.invalidations_data", float64(invalidated), len(twins))
	probeStructures(o, int(largest))

	// The statement path of the traced pass is parse + exec under the
	// request span; the stand-alone probes ran beside it and are taken
	// out before comparing with the untraced pass.
	probes := lt.Total["sqlparser.fingerprint"] + lt.Total["optimizer.plan"] + lt.Total["querystore.record"] + lt.Total["wire.encode"]
	overheadPct = (float64(tracedNs-probes)/float64(inprocNs) - 1) * 100
	o.Attempted += 4 * stmts
	o.Failed += failed

	// The decomposition the cost stack rests on: at one connection, a
	// statement's latency is the front end plus the in-process layers.
	sum := (wireMean - inproc) + perStmt("sqlparser.parse") + perStmt("engine.exec")
	o.Notes = append(o.Notes, fmt.Sprintf("1-connection mean latency %.2f us = frontend %.2f + parse %.2f + plan %.2f + exec_self %.2f + record %.2f (sum %.2f, in-process untraced %.2f)",
		wireMean, wireMean-inproc, perStmt("sqlparser.parse"), perStmt("optimizer.plan"),
		perStmt("engine.exec")-perStmt("optimizer.plan")-perStmt("querystore.record"), perStmt("querystore.record"), sum, inproc))
	if dev := (sum - wireMean) / wireMean; p.timingChecks && (dev > 0.15 || dev < -0.15) {
		o.problem("layer times sum to %.2f us, %.0f%% off the measured 1-connection mean %.2f us", sum, dev*100, wireMean)
	}
	return overheadPct, nil
}

// tracedStatements executes the stream in process, one request span per
// statement. parse and exec are the statement's real path; fingerprint,
// plan, record and encode are stand-alone probes of layers that run
// inside exec or behind the session and cannot be spanned from outside.
// It returns the bytes the result sets encoded to.
func tracedStatements(tr *tracer, in *serveInput) (int64, error) {
	db := in.tenants[0].DB
	scratch := querystore.New(sim.NewClock(), db.QueryStore().Interval())
	sink := &countingConn{}
	conn := wire.NewConn(sink)
	for i := range in.stmts {
		s := &in.stmts[i]
		tr.request("stmt")
		tr.begin("sqlparser.parse")
		parsed, err := sqlparser.Parse(s.text())
		tr.end()
		if err != nil {
			return 0, fmt.Errorf("traced pass: %w", err)
		}
		tr.begin("sqlparser.fingerprint")
		parsed.Fingerprint()
		tr.end()
		tr.begin("optimizer.plan")
		_, err = (&optimizer.Optimizer{Cat: db}).Plan(parsed)
		tr.end()
		if err != nil {
			return 0, fmt.Errorf("traced pass: plan: %w", err)
		}
		tr.begin("engine.exec")
		res, err := db.ExecStmtWith(parsed, engine.ExecOptions{LiveCapture: true})
		tr.end()
		if err != nil {
			return 0, fmt.Errorf("traced pass: exec: %w", err)
		}
		meta := querystore.QueryMeta{Text: parsed.SQL(), IsWrite: sqlparser.IsWrite(parsed), Live: true}
		info := querystore.PlanInfo{PlanHash: res.Plan.PlanHash, IndexesUsed: res.Plan.IndexesUsed}
		tr.begin("querystore.record")
		scratch.Record(res.Plan.QueryHash, meta, info, res.Measured)
		tr.end()
		if res.Columns != nil {
			if err := encodeResult(tr, conn, res, s.prepared); err != nil {
				return 0, err
			}
		}
		tr.end()
	}
	return sink.n, nil
}

// encodeResult writes a result set the way a session does: column
// definitions, then one packet per row, text or binary.
func encodeResult(tr *tracer, conn *wire.Conn, res *engine.Result, binary bool) error {
	tr.begin("wire.encode")
	defer tr.end()
	cols := make([]wire.Column, len(res.Columns))
	for i, name := range res.Columns {
		typ := byte(wire.TypeVarString)
		if len(res.Rows) > 0 && i < len(res.Rows[0]) && !res.Rows[0][i].IsNull() {
			typ = wire.TypeForKind(res.Rows[0][i].K)
		}
		cols[i] = wire.Column{Schema: serveDB, Name: name, Type: typ}
		if err := conn.WritePacket(wire.EncodeColumn(cols[i])); err != nil {
			return err
		}
	}
	for _, row := range res.Rows {
		tr.begin("wire.row")
		var p []byte
		if binary {
			p = wire.EncodeBinaryRow(cols, row)
		} else {
			p = wire.EncodeTextRow(row)
		}
		err := conn.WritePacket(p)
		tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeConnection measures, on one fresh connection, the bare round
// trip (COM_PING) and the same point lookups as text and as a prepared
// statement's binary execute, interleaved so both see the same machine.
func probeConnection(addr string, in *serveInput) (ping, prep, text []float64, err error) {
	cl, err := dial(addr, in.tenants[0])
	if err != nil {
		return nil, nil, nil, err
	}
	defer cl.Close()
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		t := startTimer()
		if err := cl.Ping(); err != nil {
			return nil, nil, nil, fmt.Errorf("ping: %w", err)
		}
		ping = append(ping, nsToMicros(t.ns()))
	}
	table := in.tenants[0].Tables[0]
	ps, err := cl.Prepare(preparedLookup(table.Name))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("prepare: %w", err)
	}
	for i := 0; i < rounds; i++ {
		id := int64(i*7919) % int64(table.Rows)
		t := startTimer()
		if _, err := ps.Execute(id); err != nil {
			return nil, nil, nil, fmt.Errorf("execute: %w", err)
		}
		prep = append(prep, nsToMicros(t.ns()))
		t = startTimer()
		if _, err := cl.Query(fmt.Sprintf("SELECT * FROM %s WHERE id = %d", table.Name, id)); err != nil {
			return nil, nil, nil, fmt.Errorf("query: %w", err)
		}
		text = append(text, nsToMicros(t.ns()))
	}
	return ping, prep, text, nil
}

// probeStructures times the storage structures alone, on a tree and a
// heap sized like the subject's largest table.
func probeStructures(o *outcome, n int) {
	if n < 1000 {
		n = 1000
	}
	row := func(i int) value.Row {
		return value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 97)), value.NewString("payload-payload-payload"), value.NewFloat(float64(i) / 3)}
	}
	key := func(i int) value.Key { return value.Key{value.NewInt(int64(i))} }
	tree := btree.New(btree.DefaultOrder)
	// Every other key, so the timed inserts below land between them.
	for i := 0; i < n; i++ {
		tree.Insert(key(2*i), row(i))
	}
	const probes = 20000
	t := startTimer()
	for i := 0; i < probes; i++ {
		tree.Get(key(2 * ((i * 7919) % n)))
	}
	o.add("btree.get_ns", float64(t.ns())/probes, probes)
	const seeks = 2000
	t = startTimer()
	for i := 0; i < seeks; i++ {
		it := tree.Seek(key(2*((i*7919)%n)), true, nil, false)
		for k := 0; k < 100; k++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	o.add("btree.seek100_ns", float64(t.ns())/seeks, seeks)
	t = startTimer()
	for i := 0; i < probes; i++ {
		tree.Insert(key(2*((i*7919)%n)+1), row(i))
	}
	o.add("btree.insert_ns", float64(t.ns())/probes, probes)

	heap := storage.NewHeap(64)
	for i := 0; i < n; i++ {
		heap.Insert(row(i))
	}
	const scans = 20
	var seen int64
	t = startTimer()
	for i := 0; i < scans; i++ {
		heap.Scan(func(storage.RID, value.Row) bool { seen++; return true })
	}
	o.add("storage.heap_scan_ns_per_row", float64(t.ns())/float64(seen), int(seen))
}

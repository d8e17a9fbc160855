package fleet

import "autoindex/internal/controlplane"

// OpsHooks lets callers (the adversarial scenario generators in
// internal/scenario) intervene at deterministic points of an ops run.
// Every callback fires in a serial barrier section — no tenant worker
// is running — so hooks may mutate tenants, issue DDL, rotate template
// mixes or adjust load factors without any synchronization, and the
// run stays bit-identical at any worker count. Nil hooks are ignored.
type OpsHooks struct {
	// AfterBuild fires once before the first hour, after the initial
	// tenant set is enrolled with the control plane.
	AfterBuild func(ctx *OpsHookContext)
	// BeforeHour fires at the barrier before hour ctx.Hour's tenant work.
	BeforeHour func(ctx *OpsHookContext)
	// AfterHour fires at the barrier after hour ctx.Hour completed
	// (control-plane step and fleet growth included).
	AfterHour func(ctx *OpsHookContext)
	// StatementsFor overrides the per-tenant statement budget for one
	// hour. It must be a pure function of (hour, tenant) — it is called
	// from parallel tenant workers — and a negative return falls back to
	// OpsConfig.StatementsPerHour. Flash-crowd scenarios spike it.
	StatementsFor func(hour int, tenant string) int
}

// OpsHookContext is what a hook sees at a barrier.
type OpsHookContext struct {
	Fleet *Fleet
	// Hour is the zero-based virtual hour (-1 for AfterBuild).
	Hour int
	// Plane is the current control-plane incarnation; chaos restarts swap
	// incarnations, so hooks must not retain it across calls.
	Plane *controlplane.ControlPlane
	// Store is the run's backing record store (the unwrapped one — reads
	// through it never trip crash fault points).
	Store controlplane.Store
}

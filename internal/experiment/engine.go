// Package experiment implements the experimentation design & control
// framework of §7.2: a workflow engine where experiment tasks are steps
// stitched into workflows, executed per candidate database with
// monitoring, error detection and cleanup — plus the paper's flagship
// experiment (§7.3 / Fig. 6) comparing the MI recommender, DTA and an
// emulated human administrator on B-instances.
package experiment

import (
	"errors"
	"fmt"
	"time"

	"autoindex/internal/binstance"
	"autoindex/internal/engine"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// Context carries state between workflow steps.
type Context struct {
	Tenant *workload.Tenant
	Clock  sim.Clock
	RNG    *sim.RNG
	// B is the experiment's B-instance once created.
	B *binstance.BInstance
	// Values holds step outputs by name.
	Values map[string]any
	// Log records step progress for monitoring.
	Log []string
}

func (c *Context) logf(format string, args ...any) {
	c.Log = append(c.Log, fmt.Sprintf("[%s] ", c.Clock.Now().Format("01-02 15:04"))+fmt.Sprintf(format, args...))
}

// Step is one unit of experiment work.
type Step struct {
	Name string
	Run  func(*Context) error
	// Cleanup, if set, runs (in reverse step order) when a later step
	// fails, and always at workflow end for steps marked AlwaysCleanup.
	Cleanup       func(*Context)
	AlwaysCleanup bool
}

// Workflow is an ordered list of steps.
type Workflow struct {
	Name  string
	Steps []Step
}

// ErrDiverged aborts a workflow whose B-instance drifted too far.
var ErrDiverged = errors.New("experiment: B-instance diverged beyond tolerance")

// Engine executes workflows.
type Engine struct {
	Clock sim.Clock
	RNG   *sim.RNG
}

// Execute runs the workflow for one tenant. On step failure, cleanups of
// completed steps run in reverse order and the error is returned with the
// context (for monitoring).
func (e *Engine) Execute(wf Workflow, tenant *workload.Tenant) (*Context, error) {
	ctx := &Context{
		Tenant: tenant,
		Clock:  e.Clock,
		RNG:    e.RNG.Child("experiment/" + wf.Name + "/" + tenant.DB.Name()),
		Values: make(map[string]any),
	}
	var done []Step
	for _, s := range wf.Steps {
		ctx.logf("step %s", s.Name)
		if err := s.Run(ctx); err != nil {
			ctx.logf("step %s failed: %v", s.Name, err)
			for i := len(done) - 1; i >= 0; i-- {
				if done[i].Cleanup != nil {
					done[i].Cleanup(ctx)
				}
			}
			return ctx, fmt.Errorf("experiment %s, step %s: %w", wf.Name, s.Name, err)
		}
		done = append(done, s)
	}
	for i := len(done) - 1; i >= 0; i-- {
		if done[i].AlwaysCleanup && done[i].Cleanup != nil {
			done[i].Cleanup(ctx)
		}
	}
	return ctx, nil
}

// ---- step library (§7.2: "a library of commonly-used steps") ----

// StepCreateBInstance forks a B-instance from the tenant's primary.
func StepCreateBInstance(cfg binstance.Config) Step {
	return Step{
		Name: "create-b-instance",
		Run: func(ctx *Context) error {
			ctx.B = binstance.Fork(ctx.Tenant.DB, ctx.Tenant.DB.Name()+"-b", cfg, ctx.RNG)
			return nil
		},
		// No cleanup: the B-instance stays inspectable after the workflow;
		// abandoning it releases the only reference.
	}
}

// StepReplay replays a freshly sampled workload phase onto the B-instance
// (and optionally through the primary with a TDS-style fork).
func StepReplay(name string, d time.Duration, statements int, throughPrimary bool) Step {
	return Step{
		Name: "replay-" + name,
		Run: func(ctx *Context) error {
			if ctx.B == nil {
				return errors.New("experiment: no B-instance")
			}
			stmts := ctx.Tenant.Stream(statements)
			if throughPrimary {
				// Execute on the A-instance and fork each statement.
				step := d / time.Duration(len(stmts)+1)
				for _, sql := range stmts {
					ctx.Tenant.DB.ExecWith(sql, engine.ExecOptions{DiscardRows: true}) //nolint:errcheck // A-side errors don't gate the fork
					ctx.B.Offer(sql)
					ctx.Clock.Sleep(step)
				}
				ctx.B.Flush()
			} else {
				ctx.Tenant.Replay(ctx.B.DB, stmts, d)
			}
			if ctx.B.Failed() {
				return errors.New("experiment: B-instance failed during replay")
			}
			return nil
		},
	}
}

// StepCheckDivergence aborts when the B-instance drifted beyond maxRel.
func StepCheckDivergence(maxRel float64) Step {
	return Step{
		Name: "check-divergence",
		Run: func(ctx *Context) error {
			if ctx.B == nil {
				return errors.New("experiment: no B-instance")
			}
			if d := ctx.B.Divergence(); d > maxRel {
				return fmt.Errorf("%w: %.3f > %.3f", ErrDiverged, d, maxRel)
			}
			return nil
		},
	}
}

// StepMark records the current time under a name, for phase windows.
func StepMark(name string) Step {
	return Step{
		Name: "mark-" + name,
		Run: func(ctx *Context) error {
			ctx.Values[name] = ctx.Clock.Now()
			return nil
		},
	}
}

// MarkedTime fetches a StepMark timestamp.
func MarkedTime(ctx *Context, name string) (time.Time, bool) {
	v, ok := ctx.Values[name]
	if !ok {
		return time.Time{}, false
	}
	t, ok := v.(time.Time)
	return t, ok
}

// StepCustom wraps an ad-hoc function as a step ("custom steps can be
// added for any experiment").
func StepCustom(name string, fn func(*Context) error) Step {
	return Step{Name: name, Run: fn}
}

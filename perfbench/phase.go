package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/tensor"
)

// bench is one set-up workload.
type bench interface {
	// columns returns the workload's timed columns in round order.
	columns() []column
	// fingerprint summarizes the set-up's deterministic outputs (warm-up
	// losses, trained accuracies); repeated set-ups from one seed must
	// agree on it bit for bit.
	fingerprint() string
	// check runs the end-of-run output checks.
	check(chk *checks)
	// layerMetrics derives per-layer metrics that are not plain span or
	// value medians (ratios, differences, exact counts) from those in m.
	layerMetrics(m map[string]float64)
	close()
}

// builder sets a workload up from opt. A non-nil tr traces the set-up
// and arms the workload's traced-only probes.
type builder func(ctx context.Context, opt options, tr *tracer) (bench, error)

var builders = map[string]builder{
	wTrain: newTrainBench,
	wInfer: newInferBench,
	wServe: newServeBench,
}

// column is one timed column of a workload. A round runs each column's
// op reps times, in column order, so columns interleave and share any
// slow patch of the host evenly.
type column struct {
	name string
	reps int
	// op is the timed unit operation.
	op func(ctx context.Context, tr *tracer) error
	// probe, when set, runs after op in traced phases only, outside the
	// timed interval; it times the layers below op one by one.
	probe func(ctx context.Context, tr *tracer) error
}

// phase is one timed phase's outcome.
type phase struct {
	samples   map[string][]float64 // column -> op times, ms
	attempted int
	failed    int
	errs      []string
}

// minRounds keeps a phase from ending before every column has a sample
// count a median can rest on, however slow the host.
const minRounds = 2

// runPhase runs whole rounds of the columns until seconds have passed.
// With a tracer, each op is a root span "op.<column>" and each probe a
// root span "probe.<column>", and the arena's per-op deltas are recorded.
func runPhase(ctx context.Context, cols []column, seconds float64, tr *tracer) *phase {
	ph := &phase{samples: make(map[string][]float64)}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		for _, c := range cols {
			for r := 0; r < c.reps; r++ {
				var arena tensor.ArenaStats
				if tr != nil {
					arena = tensor.ArenaStatsSnapshot()
				}
				root := tr.begin("op." + c.name)
				start := time.Now()
				err := c.op(ctx, tr)
				d := time.Since(start)
				tr.end(root)
				if tr != nil {
					after := tensor.ArenaStatsSnapshot()
					gets := after.Gets - arena.Gets
					tr.value("tensor.arena_gets", float64(gets))
					if gets > 0 {
						tr.value("tensor.arena_hit_ratio", float64(after.Hits-arena.Hits)/float64(gets))
					}
				}
				ph.attempted++
				if err == nil && c.probe != nil && tr != nil {
					p := tr.begin("probe." + c.name)
					err = c.probe(ctx, tr)
					tr.end(p)
				}
				if err != nil {
					ph.failed++
					if len(ph.errs) < 5 {
						ph.errs = append(ph.errs, fmt.Sprintf("%s: %v", c.name, err))
					}
					continue
				}
				ph.samples[c.name] = append(ph.samples[c.name], ms(d))
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	return ph
}

// checks accumulates output checks and operation counts for the result.
type checks struct {
	passed    int
	failures  []string
	attempted int
	failed    int
	opErrs    []string // the first errors of failed operations
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if ok {
		c.passed++
		return
	}
	c.fail(format, args...)
}

func (c *checks) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) addPhase(ph *phase) {
	c.attempted += ph.attempted
	c.failed += ph.failed
	c.opErrs = append(c.opErrs, ph.errs...)
}

package resilience

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
)

// Fault kinds understood by the harness.
const (
	// KindNaN poisons the reported loss with NaN at the target iteration.
	KindNaN = "nan"
	// KindInf poisons the reported loss with +Inf.
	KindInf = "inf"
	// KindOpErr fails an op dispatch with an error wrapping ErrInjected.
	KindOpErr = "operr"
	// KindSlow delays an op dispatch by the fault's Delay.
	KindSlow = "slow"
	// KindCorrupt overwrites part of the input batch with NaN.
	KindCorrupt = "corrupt"
	// KindCrash simulates a process kill (non-retryable; see
	// ErrInjectedCrash).
	KindCrash = "crash"
)

// Fault is one deterministic fault: fire Kind at training iteration At,
// Count times in total (so a retried attempt replaying the iteration does
// not re-fire it).
type Fault struct {
	// Kind is one of the Kind* constants.
	Kind string
	// At is the 0-based training iteration to fire at.
	At int
	// Site, for op faults, restricts firing to one dispatch site (e.g.
	// "graph.forward"); empty matches any site.
	Site string
	// Cell, when non-empty, restricts the fault to matrix cells whose key
	// contains it as a substring; empty hits every cell.
	Cell string
	// Delay is the added latency for KindSlow.
	Delay time.Duration
	// Count is the total number of firings (default 1).
	Count int
}

// Plan is a parsed fault schedule. A nil *Plan is the disabled harness.
type Plan struct {
	Faults []Fault
}

// ParsePlan parses the CLI fault grammar: semicolon-separated entries of
// the form
//
//	kind@ITER[:key=value[,key=value...]]
//
// with kinds nan, inf, operr, slow, corrupt, crash and keys site=SITE,
// cell=SUBSTR, delay=DURATION, count=N. Examples:
//
//	nan@3
//	operr@5:site=graph.forward,cell=TF
//	slow@2:delay=5ms,count=3;crash@7:cell=Caffe
//
// An empty string yields a nil plan (harness disabled).
func ParsePlan(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var p Plan
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f, err := parseFault(entry)
		if err != nil {
			return nil, err
		}
		p.Faults = append(p.Faults, f)
	}
	if len(p.Faults) == 0 {
		return nil, nil
	}
	return &p, nil
}

func parseFault(entry string) (Fault, error) {
	head, opts, _ := strings.Cut(entry, ":")
	kind, at, ok := strings.Cut(head, "@")
	if !ok {
		return Fault{}, fmt.Errorf("resilience: fault %q: want kind@iteration", entry)
	}
	switch kind {
	case KindNaN, KindInf, KindOpErr, KindSlow, KindCorrupt, KindCrash:
	default:
		return Fault{}, fmt.Errorf("resilience: fault %q: unknown kind %q", entry, kind)
	}
	iter, err := strconv.Atoi(at)
	if err != nil || iter < 0 {
		return Fault{}, fmt.Errorf("resilience: fault %q: bad iteration %q", entry, at)
	}
	f := Fault{Kind: kind, At: iter, Count: 1}
	if opts != "" {
		for _, kv := range strings.Split(opts, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Fault{}, fmt.Errorf("resilience: fault %q: want key=value, got %q", entry, kv)
			}
			switch key {
			case "site":
				f.Site = val
			case "cell":
				f.Cell = val
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return Fault{}, fmt.Errorf("resilience: fault %q: bad delay %q", entry, val)
				}
				f.Delay = d
			case "count":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return Fault{}, fmt.Errorf("resilience: fault %q: bad count %q", entry, val)
				}
				f.Count = n
			default:
				return Fault{}, fmt.Errorf("resilience: fault %q: unknown key %q", entry, key)
			}
		}
	}
	if f.Kind == KindSlow && f.Delay == 0 {
		return Fault{}, fmt.Errorf("resilience: fault %q: slow fault needs delay=", entry)
	}
	return f, nil
}

// For arms the plan's faults applicable to one matrix cell, returning a
// fresh Injector (per-cell firing budgets are independent). It returns
// nil — the disabled injector — when the plan is nil or no fault matches,
// so the common path costs the caller a nil check.
func (p *Plan) For(cell string) *Injector {
	if p == nil {
		return nil
	}
	var armed []*armedFault
	for _, f := range p.Faults {
		if f.Cell != "" && !strings.Contains(cell, f.Cell) {
			continue
		}
		af := &armedFault{Fault: f, remaining: f.Count}
		if af.remaining < 1 {
			af.remaining = 1
		}
		armed = append(armed, af)
	}
	if len(armed) == 0 {
		return nil
	}
	return &Injector{faults: armed}
}

type armedFault struct {
	Fault
	remaining int
}

// Injector fires a cell's armed faults deterministically. All methods are
// nil-receiver safe; the suite shares one injector per cell between the
// training loop and the executor's op hook (both on one goroutine).
type Injector struct {
	faults []*armedFault
	iter   int
	fired  int64
}

// BeginIteration positions the injector at training iteration it.
func (in *Injector) BeginIteration(it int) {
	if in != nil {
		in.iter = it
	}
}

// Injected returns the number of fault firings so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.fired
}

// OpError is the engine.OpHook the suite installs, bound to the run's
// context: it fails or delays op dispatches per the armed op faults. A
// delay ends early with ctx's error when ctx is done, so a slow fault
// cannot hold a run past its deadline.
func (in *Injector) OpError(ctx context.Context, site string) error {
	if in == nil {
		return nil
	}
	for _, f := range in.faults {
		if f.remaining <= 0 || f.At != in.iter {
			continue
		}
		if f.Site != "" && f.Site != site {
			continue
		}
		switch f.Kind {
		case KindOpErr:
			f.remaining--
			in.fired++
			return fmt.Errorf("%w: op error at iteration %d site %s", ErrInjected, in.iter, site)
		case KindSlow:
			f.remaining--
			in.fired++
			if err := sleep(ctx, f.Delay); err != nil {
				return err
			}
		}
	}
	return nil
}

// sleep waits for d, the delay of a slow fault, or until ctx is done,
// returning ctx's error in the latter case.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// PoisonLoss returns the (possibly poisoned) loss and whether a nan/inf
// fault fired.
func (in *Injector) PoisonLoss(loss float64) (float64, bool) {
	if in == nil {
		return loss, false
	}
	for _, f := range in.faults {
		if f.remaining <= 0 || f.At != in.iter {
			continue
		}
		switch f.Kind {
		case KindNaN:
			f.remaining--
			in.fired++
			return math.NaN(), true
		case KindInf:
			f.remaining--
			in.fired++
			return math.Inf(1), true
		}
	}
	return loss, false
}

// CorruptBatch overwrites a deterministic stripe of the batch with NaN
// when a corrupt fault is due, reporting whether it fired.
func (in *Injector) CorruptBatch(x *tensor.Tensor) bool {
	if in == nil {
		return false
	}
	for _, f := range in.faults {
		if f.remaining <= 0 || f.At != in.iter || f.Kind != KindCorrupt {
			continue
		}
		f.remaining--
		in.fired++
		d := x.Data()
		for i := 0; i < len(d); i += 16 {
			d[i] = math.NaN()
		}
		return true
	}
	return false
}

// Crash returns an ErrInjectedCrash-wrapped error when a crash fault is
// due at the current iteration.
func (in *Injector) Crash() error {
	if in == nil {
		return nil
	}
	for _, f := range in.faults {
		if f.remaining <= 0 || f.At != in.iter || f.Kind != KindCrash {
			continue
		}
		f.remaining--
		in.fired++
		return fmt.Errorf("%w: at iteration %d", ErrInjectedCrash, in.iter)
	}
	return nil
}

package resilience

import (
	"context"
	"testing"
)

// FuzzParsePlan fuzzes the -faults grammar, which POST /jobs also
// accepts from the network. No input may panic the parser, every
// accepted plan must hold the invariants the injector relies on, and
// arming and firing the plan must not panic either. Firing runs under
// an already cancelled context, so a slow fault returns at once. The
// seed corpus is in testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil || p == nil {
			return
		}
		for _, fl := range p.Faults {
			switch fl.Kind {
			case KindNaN, KindInf, KindOpErr, KindSlow, KindCorrupt, KindCrash:
			default:
				t.Fatalf("ParsePlan(%q) accepted unknown kind %q", s, fl.Kind)
			}
			if fl.At < 0 || fl.Count < 1 || fl.Delay < 0 || (fl.Kind == KindSlow && fl.Delay == 0) {
				t.Fatalf("ParsePlan(%q) accepted %+v", s, fl)
			}
			in := p.For(fl.Cell)
			in.BeginIteration(fl.At)
			_ = in.OpError(cancelled, fl.Site) // an injected error is the point
			in.PoisonLoss(1)
			_ = in.Crash()
		}
		p.For(s)
	})
}

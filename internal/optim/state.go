package optim

import (
	"fmt"

	"repro/internal/tensor"
)

// State is a plain-data snapshot of an optimizer's mutable state: the
// iteration counter (which drives the learning-rate schedule) and every
// state slot (SGD momentum velocity, Adam first/second moments), flattened
// in parameter order. It exists so the resilience layer can checkpoint a
// training run mid-flight and later resume — or roll back — with
// bit-identical update dynamics.
type State struct {
	Algorithm string
	Iteration int
	// Slots holds the flattened state tensors. SGD with momentum has one
	// slot per parameter; Adam has two (m then v, interleaved per
	// parameter); plain SGD has none.
	Slots [][]float64
}

// Checkpointable is implemented by optimizers whose state can be captured
// and restored. Both SGD and Adam implement it.
type Checkpointable interface {
	Optimizer
	// CaptureState returns a deep copy of the optimizer's mutable state.
	CaptureState() State
	// RestoreState overwrites the optimizer's state from a snapshot taken
	// on a structurally identical optimizer.
	RestoreState(State) error
}

var (
	_ Checkpointable = (*SGD)(nil)
	_ Checkpointable = (*Adam)(nil)
)

// CaptureState implements Checkpointable.
func (s *SGD) CaptureState() State {
	st := State{Algorithm: "sgd", Iteration: s.it}
	for _, v := range s.velocity {
		st.Slots = append(st.Slots, append([]float64(nil), v.Data()...))
	}
	return st
}

// RestoreState implements Checkpointable.
func (s *SGD) RestoreState(st State) error {
	if st.Algorithm != "sgd" {
		return fmt.Errorf("%w: restoring %q state into sgd", ErrConfig, st.Algorithm)
	}
	if len(st.Slots) != len(s.velocity) {
		return fmt.Errorf("%w: sgd state has %d slots, optimizer has %d", ErrConfig, len(st.Slots), len(s.velocity))
	}
	for i, v := range s.velocity {
		if err := restoreSlot(v, st.Slots[i]); err != nil {
			return err
		}
	}
	s.it = st.Iteration
	return nil
}

// CaptureState implements Checkpointable.
func (a *Adam) CaptureState() State {
	st := State{Algorithm: "adam", Iteration: a.it}
	for i := range a.m {
		st.Slots = append(st.Slots,
			append([]float64(nil), a.m[i].Data()...),
			append([]float64(nil), a.v[i].Data()...))
	}
	return st
}

// RestoreState implements Checkpointable.
func (a *Adam) RestoreState(st State) error {
	if st.Algorithm != "adam" {
		return fmt.Errorf("%w: restoring %q state into adam", ErrConfig, st.Algorithm)
	}
	if len(st.Slots) != 2*len(a.m) {
		return fmt.Errorf("%w: adam state has %d slots, optimizer has %d", ErrConfig, len(st.Slots), 2*len(a.m))
	}
	for i := range a.m {
		if err := restoreSlot(a.m[i], st.Slots[2*i]); err != nil {
			return err
		}
		if err := restoreSlot(a.v[i], st.Slots[2*i+1]); err != nil {
			return err
		}
	}
	a.it = st.Iteration
	return nil
}

// restoreSlot copies a flattened snapshot back into a state tensor.
func restoreSlot(dst *tensor.Tensor, src []float64) error {
	d := dst.Data()
	if len(d) != len(src) {
		return fmt.Errorf("%w: state slot has %d values, tensor has %d", ErrConfig, len(src), len(d))
	}
	copy(d, src)
	return nil
}

// ScaledSchedule multiplies every rate of an inner schedule by a constant
// factor. The resilience layer uses it to retry a diverged training run
// with a halved learning rate while preserving the schedule's shape.
type ScaledSchedule struct {
	Inner  Schedule
	Factor float64
}

// At implements Schedule.
func (s ScaledSchedule) At(it int) float64 { return s.Factor * s.Inner.At(it) }

// Scaled wraps sched so every rate is multiplied by factor; factor 1
// returns sched unchanged.
func Scaled(sched Schedule, factor float64) Schedule {
	if factor == 1 {
		return sched
	}
	return ScaledSchedule{Inner: sched, Factor: factor}
}

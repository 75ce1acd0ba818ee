// Package metrics implements the paper's three metric families — runtime
// performance (training/testing time), learning accuracy, and adversarial
// robustness bookkeeping (success-rate matrices) — plus the table/figure
// rendering used by the benchmark reports.
package metrics

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
)

// ErrInput is returned (wrapped) for invalid metric inputs.
var ErrInput = errors.New("metrics: invalid input")

// Accuracy returns the fraction (percent) of predictions matching labels.
func Accuracy(preds, labels []int) (float64, error) {
	if len(preds) != len(labels) {
		return 0, fmt.Errorf("%w: %d predictions for %d labels", ErrInput, len(preds), len(labels))
	}
	if len(preds) == 0 {
		return 0, fmt.Errorf("%w: empty prediction set", ErrInput)
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(preds)), nil
}

// Percentile returns the exact nearest-rank p-th percentile (0..100) of
// vals: the value at 1-based rank round(p/100·n), clamped to [1, n], so
// p99 of 40 samples is the largest. core.InferSweep and cmd/loadgen
// report their tails with it; obs.Histogram, behind the /metrics
// summaries, is a bucketed streaming estimate instead. vals is not
// modified, and no samples yield the zero value.
func Percentile[T cmp.Ordered](vals []T, p float64) T {
	if len(vals) == 0 {
		var zero T
		return zero
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	rank := int(p/100*float64(len(sorted)) + 0.5)
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Confusion is a square confusion matrix: Counts[true][predicted].
type Confusion struct {
	classes int
	counts  [][]int
	total   int
}

// NewConfusion constructs an n-class confusion matrix.
func NewConfusion(n int) (*Confusion, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d classes", ErrInput, n)
	}
	c := &Confusion{classes: n, counts: make([][]int, n)}
	for i := range c.counts {
		c.counts[i] = make([]int, n)
	}
	return c, nil
}

// Add records one (true, predicted) observation.
func (c *Confusion) Add(truth, pred int) error {
	if truth < 0 || truth >= c.classes || pred < 0 || pred >= c.classes {
		return fmt.Errorf("%w: observation (%d,%d) outside %d classes", ErrInput, truth, pred, c.classes)
	}
	c.counts[truth][pred]++
	c.total++
	return nil
}

// Count returns the raw count for (truth, pred).
func (c *Confusion) Count(truth, pred int) int { return c.counts[truth][pred] }

// Classes returns the class count.
func (c *Confusion) Classes() int { return c.classes }

// Total returns the number of recorded observations.
func (c *Confusion) Total() int { return c.total }

// Accuracy returns the percent of diagonal observations.
func (c *Confusion) Accuracy() float64 {
	if c.total == 0 {
		return 0
	}
	diag := 0
	for i := 0; i < c.classes; i++ {
		diag += c.counts[i][i]
	}
	return 100 * float64(diag) / float64(c.total)
}

// Rate returns P(pred | truth) — the row-normalized rate.
func (c *Confusion) Rate(truth, pred int) float64 {
	rowTotal := 0
	for _, v := range c.counts[truth] {
		rowTotal += v
	}
	if rowTotal == 0 {
		return 0
	}
	return float64(c.counts[truth][pred]) / float64(rowTotal)
}

// TimeRecord pairs a deterministic cost-model duration (comparable to the
// paper's testbed numbers) with the wall-clock duration this host actually
// spent.
type TimeRecord struct {
	// ModelSeconds is the calibrated cost-model output at paper scale.
	ModelSeconds float64
	// WallSeconds is the measured host time at reproduction scale.
	WallSeconds float64
}

// RunResult captures one benchmark run — the columns of the paper's
// Tables VI/VII.
type RunResult struct {
	// Framework executes the run; Settings names the default-setting
	// source, e.g. "TF CIFAR-10" (the paper's row labels).
	Framework string
	Settings  string
	// Dataset and Device describe the workload.
	Dataset string
	Device  string
	// Train and Test are the phase timings.
	Train TimeRecord
	Test  TimeRecord
	// AccuracyPct is the test-set accuracy in percent.
	AccuracyPct float64
	// FinalLoss is the last recorded training loss; Converged reports
	// whether training made progress (the paper's Caffe-on-CIFAR runs
	// famously do not).
	FinalLoss float64
	Converged bool
	// LossHistory records (iteration, loss) pairs for convergence plots
	// (the paper's Figure 5).
	LossHistory []LossPoint
	// Epochs is the number of epochs actually trained at reproduction
	// scale.
	Epochs int
	// Telemetry, when the suite ran with an obs tracer attached, is the
	// run-scoped instrument delta: phase durations with quantiles,
	// dispatch counters, loss/accuracy gauges. Nil when observability is
	// disabled; omitted from JSON in that case.
	Telemetry *obs.Snapshot `json:",omitempty"`
	// Failed marks a cell whose training could not be completed (retry
	// budget exhausted, injected crash, escaped panic); Error carries the
	// cause. Failed rows keep their identification columns and zero
	// metrics, so a partially failed matrix still renders.
	Failed bool   `json:",omitempty"`
	Error  string `json:",omitempty"`
}

// LossPoint is one sample of the training-loss curve.
type LossPoint struct {
	Iteration int
	Loss      float64
}

// Table renders aligned fixed-width text tables for the CLI reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable constructs a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatSeconds renders a duration the way the paper's tables do: two
// decimals, no unit suffix.
func FormatSeconds(s float64) string { return fmt.Sprintf("%.2f", s) }

// FormatPct renders a percentage with two decimals.
func FormatPct(p float64) string { return fmt.Sprintf("%.2f", p) }

package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON encodes results as indented JSON to w — the machine-readable
// companion to the text tables.
func WriteJSON(w io.Writer, results []RunResult) error {
	if results == nil {
		// A cancelled sweep can complete zero rows; its partial report
		// must still be a well-formed (empty) array, not null.
		results = []RunResult{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return fmt.Errorf("metrics: write json: %w", err)
	}
	return nil
}

// csvHeader is the flat column layout of WriteCSV.
var csvHeader = []string{
	"framework", "settings", "dataset", "device",
	"train_model_s", "train_wall_s", "test_model_s", "test_wall_s",
	"accuracy_pct", "final_loss", "converged", "epochs",
	"failed", "error",
}

// WriteCSV encodes results as CSV (loss histories omitted).
func WriteCSV(w io.Writer, results []RunResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("metrics: write csv header: %w", err)
	}
	for _, r := range results {
		row := []string{
			r.Framework, r.Settings, r.Dataset, r.Device,
			strconv.FormatFloat(r.Train.ModelSeconds, 'f', 4, 64),
			strconv.FormatFloat(r.Train.WallSeconds, 'f', 4, 64),
			strconv.FormatFloat(r.Test.ModelSeconds, 'f', 4, 64),
			strconv.FormatFloat(r.Test.WallSeconds, 'f', 4, 64),
			strconv.FormatFloat(r.AccuracyPct, 'f', 4, 64),
			strconv.FormatFloat(r.FinalLoss, 'f', 6, 64),
			strconv.FormatBool(r.Converged),
			strconv.Itoa(r.Epochs),
			strconv.FormatBool(r.Failed),
			r.Error,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("metrics: write csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("metrics: flush csv: %w", err)
	}
	return nil
}

// lossCSVHeader is the flat column layout of WriteLossCSV.
var lossCSVHeader = []string{
	"framework", "settings", "dataset", "device", "iteration", "loss",
}

// WriteLossCSV encodes every run's loss history as flat CSV — one row
// per (run, loss sample) — so convergence plots (the paper's Figure 5)
// can be drawn from CSV alone. WriteCSV deliberately omits LossHistory
// from its per-run rows; this is its long-format companion.
func WriteLossCSV(w io.Writer, results []RunResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(lossCSVHeader); err != nil {
		return fmt.Errorf("metrics: write loss csv header: %w", err)
	}
	for _, r := range results {
		for _, p := range r.LossHistory {
			row := []string{
				r.Framework, r.Settings, r.Dataset, r.Device,
				strconv.Itoa(p.Iteration),
				strconv.FormatFloat(p.Loss, 'f', 6, 64),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("metrics: write loss csv row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("metrics: flush loss csv: %w", err)
	}
	return nil
}

// JSON tags for RunResult serialization live on the type itself via
// MarshalJSON-free struct encoding; field names are exported as-is.

package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/adversarial"
	"repro/internal/device"
	"repro/internal/framework"
	"repro/internal/metrics"
)

// ExperimentResult is a generic container: a title, the structured rows,
// and a rendered text report.
type ExperimentResult struct {
	Title string
	Rows  []metrics.RunResult
	Text  string
}

// Baseline reproduces Figures 1/2 and Tables VI(a)/VII(a): every framework
// under its own defaults for ds, on CPU and GPU. Cells run with failure
// isolation (see RunMatrix): a failed cell becomes a Failed row and the
// rest of the matrix completes. A non-nil error means cancellation; the
// returned result still renders the rows completed so far.
func (s *Suite) Baseline(ctx context.Context, ds framework.DatasetID) (ExperimentResult, error) {
	var specs []RunSpec
	for _, kind := range []device.Kind{device.CPU, device.GPU} {
		for _, fw := range framework.All {
			specs = append(specs, RunSpec{Framework: fw, SettingsFW: fw, SettingsDS: ds, Data: ds, Device: kind})
		}
	}
	rows, err := s.RunMatrix(ctx, specs)
	title := fmt.Sprintf("Baseline default settings on %s (paper Fig. %d / Table %s(a))",
		ds, figNumber(ds, 1, 2), tableNumber(ds))
	return ExperimentResult{Title: title, Rows: rows, Text: renderTimeAccuracyTable(title, rows, true)}, err
}

// DatasetDependent reproduces Figures 3/4 and Tables VI(b)/VII(b): each
// framework trained on dataOn with its own MNIST defaults and its own
// CIFAR-10 defaults (GPU). Failure isolation as in Baseline.
func (s *Suite) DatasetDependent(ctx context.Context, dataOn framework.DatasetID) (ExperimentResult, error) {
	var specs []RunSpec
	for _, fw := range framework.All {
		for _, settingsDS := range framework.Datasets {
			specs = append(specs, RunSpec{Framework: fw, SettingsFW: fw, SettingsDS: settingsDS, Data: dataOn, Device: device.GPU})
		}
	}
	rows, err := s.RunMatrix(ctx, specs)
	title := fmt.Sprintf("Dataset-dependent default settings on %s (paper Fig. %d / Table %s(b))",
		dataOn, figNumber(dataOn, 3, 4), tableNumber(dataOn))
	return ExperimentResult{Title: title, Rows: rows, Text: renderTimeAccuracyTable(title, rows, false)}, err
}

// FrameworkDependent reproduces Figures 6/7 and Tables VI(c)/VII(c): each
// framework trained on ds with each framework's defaults for ds (GPU).
// Failure isolation as in Baseline.
func (s *Suite) FrameworkDependent(ctx context.Context, ds framework.DatasetID) (ExperimentResult, error) {
	var specs []RunSpec
	for _, fw := range framework.All {
		for _, settingsFW := range framework.All {
			specs = append(specs, RunSpec{Framework: fw, SettingsFW: settingsFW, SettingsDS: ds, Data: ds, Device: device.GPU})
		}
	}
	rows, err := s.RunMatrix(ctx, specs)
	title := fmt.Sprintf("Framework-dependent default settings on %s (paper Fig. %d / Table %s(c))",
		ds, figNumber(ds, 6, 7), tableNumber(ds))
	return ExperimentResult{Title: title, Rows: rows, Text: renderTimeAccuracyTable(title, rows, false)}, err
}

// ConvergenceResult carries the Figure 5 loss curves.
type ConvergenceResult struct {
	Title  string
	Curves map[string][]metrics.LossPoint
	// Converged records the paper's headline: the CIFAR-10-settings run
	// converges, the MNIST-settings run does not.
	Converged map[string]bool
	Text      string
}

// CaffeConvergence reproduces Figure 5: Caffe's training loss on CIFAR-10
// under its MNIST defaults (diverges, loss pinned at the ≈87.34 clamp) and
// its CIFAR-10 defaults (converges).
func (s *Suite) CaffeConvergence(ctx context.Context) (ConvergenceResult, error) {
	res := ConvergenceResult{
		Title:     "Training loss of Caffe on CIFAR-10 (paper Fig. 5)",
		Curves:    make(map[string][]metrics.LossPoint),
		Converged: make(map[string]bool),
	}
	// The text lists the curves in framework.Datasets order, so the
	// figure prints the same way on every run.
	var labels []string
	for _, settingsDS := range framework.Datasets {
		r, err := s.RunContext(ctx, RunSpec{
			Framework: framework.Caffe, SettingsFW: framework.Caffe,
			SettingsDS: settingsDS, Data: framework.CIFAR10, Device: device.GPU,
		})
		if err != nil {
			return ConvergenceResult{}, err
		}
		label := "Caffe " + settingsDS.String() + " settings"
		labels = append(labels, label)
		res.Curves[label] = r.LossHistory
		res.Converged[label] = r.Converged
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", res.Title)
	for _, label := range labels {
		curve := res.Curves[label]
		fmt.Fprintf(&b, "%-28s converged=%-5v  loss: first %.4f  last %.4f\n",
			label, res.Converged[label], curve[0].Loss, curve[len(curve)-1].Loss)
	}
	b.WriteString("\nLoss curves (iteration: loss):\n")
	for _, label := range labels {
		curve := res.Curves[label]
		fmt.Fprintf(&b, "  %s\n    ", label)
		step := len(curve) / 10
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(curve); i += step {
			fmt.Fprintf(&b, "%d:%.3f ", curve[i].Iteration, curve[i].Loss)
		}
		b.WriteString("\n")
	}
	res.Text = b.String()
	return res, nil
}

// UntargetedRobustnessResult carries Figure 8: FGSM success per digit for
// the TensorFlow- and Caffe-trained MNIST models and their difference.
type UntargetedRobustnessResult struct {
	Title      string
	TF, Caffe  adversarial.UntargetedResult
	Difference []float64 // Caffe − TensorFlow per digit (Fig. 8c)
	Text       string
}

// UntargetedRobustness reproduces Figure 8 with the suite's FGSM settings.
func (s *Suite) UntargetedRobustness(ctx context.Context) (UntargetedRobustnessResult, error) {
	_, test, err := s.Datasets(framework.MNIST)
	if err != nil {
		return UntargetedRobustnessResult{}, err
	}
	attack := func(fw framework.ID) (adversarial.UntargetedResult, error) {
		net, err := s.TrainedNetworkContext(ctx, RunSpec{
			Framework: fw, SettingsFW: fw,
			SettingsDS: framework.MNIST, Data: framework.MNIST, Device: device.GPU,
		})
		if err != nil {
			return adversarial.UntargetedResult{}, err
		}
		return adversarial.RunFGSM(net, test, 10, s.scale.FGSMEpsilon, s.scale.FGSMPerClass)
	}
	res := UntargetedRobustnessResult{Title: "Untargeted FGSM attacks on MNIST models (paper Fig. 8)"}
	if res.TF, err = attack(framework.TensorFlow); err != nil {
		return UntargetedRobustnessResult{}, err
	}
	if res.Caffe, err = attack(framework.Caffe); err != nil {
		return UntargetedRobustnessResult{}, err
	}
	res.Difference = make([]float64, 10)
	for d := 0; d < 10; d++ {
		res.Difference[d] = res.Caffe.SuccessRate[d] - res.TF.SuccessRate[d]
	}
	tbl := metrics.NewTable("Digit", "TF success", "Caffe success", "Difference (Caffe-TF)")
	for d := 0; d < 10; d++ {
		tbl.AddRow(fmt.Sprintf("%d", d),
			fmt.Sprintf("%.3f", res.TF.SuccessRate[d]),
			fmt.Sprintf("%.3f", res.Caffe.SuccessRate[d]),
			fmt.Sprintf("%+.3f", res.Difference[d]))
	}
	res.Text = res.Title + fmt.Sprintf(" (ε=%.3g)\n\n", s.scale.FGSMEpsilon) + tbl.String()
	return res, nil
}

// craftCampaignAttempts is the modeled crafting-campaign size behind the
// Table VIII timing comparison (10 source digits × 9 targets × ≈333
// samples — the scale at which the paper's minute-level numbers arise).
const craftCampaignAttempts = 30000

// JSMARow is one model row of Figure 9 / Tables VIII-IX.
type JSMARow struct {
	// Label is the paper's notation, e.g. "TF (Caffe)" = TensorFlow
	// framework with Caffe's MNIST parameters.
	Label string
	// ThirdLayer and Regularization reproduce Table IX's descriptive
	// columns.
	ThirdLayer     string
	Regularization string
	// Success[t] is the rate of crafting digit Source into class t.
	Success []float64
	// MeanBackwardPasses is the measured gradient-computation cost per
	// attempt; CraftModelMinutes is the Table VIII cost-model time for a
	// campaign of craftCampaignAttempts.
	MeanBackwardPasses float64
	CraftModelMinutes  float64
}

// TargetedRobustnessResult carries Figure 9 and Tables VIII/IX.
type TargetedRobustnessResult struct {
	Title  string
	Source int
	Rows   []JSMARow
	Text   string
}

// TargetedRobustness reproduces Figure 9 and Tables VIII/IX: JSMA crafting
// of the source digit into every other class, for the four
// framework/parameter pairings of the paper ({TF, Caffe} × {TF params,
// Caffe params}).
func (s *Suite) TargetedRobustness(ctx context.Context, source int) (TargetedRobustnessResult, error) {
	if source < 0 || source > 9 {
		return TargetedRobustnessResult{}, fmt.Errorf("%w: source digit %d", ErrConfig, source)
	}
	_, test, err := s.Datasets(framework.MNIST)
	if err != nil {
		return TargetedRobustnessResult{}, err
	}
	pairs := []struct {
		fw, settings framework.ID
	}{
		{framework.TensorFlow, framework.TensorFlow},
		{framework.TensorFlow, framework.Caffe},
		{framework.Caffe, framework.TensorFlow},
		{framework.Caffe, framework.Caffe},
	}
	res := TargetedRobustnessResult{
		Title:  fmt.Sprintf("Targeted JSMA attacks: crafting digit %d (paper Fig. 9 / Tables VIII-IX)", source),
		Source: source,
	}
	for _, p := range pairs {
		spec := RunSpec{Framework: p.fw, SettingsFW: p.settings, SettingsDS: framework.MNIST, Data: framework.MNIST, Device: device.GPU}
		net, err := s.TrainedNetworkContext(ctx, spec)
		if err != nil {
			return TargetedRobustnessResult{}, err
		}
		out, err := adversarial.RunJSMA(net, test, source, adversarial.JSMAConfig{
			Theta:    s.scale.JSMATheta,
			MaxIters: s.scale.JSMAMaxIters,
			Classes:  10,
		}, s.scale.JSMAPerTarget)
		if err != nil {
			if errors.Is(err, adversarial.ErrConfig) {
				// The model never classifies the source class correctly
				// (possible for diverged/under-trained models at tiny
				// scales): record an empty row rather than aborting the
				// whole experiment.
				out = adversarial.TargetedResult{
					Source:      source,
					SuccessRate: make([]float64, 10),
					Attempts:    make([]int, 10),
				}
			} else {
				return TargetedRobustnessResult{}, err
			}
		}
		cm, err := framework.CostModelFor(p.fw, device.GPU)
		if err != nil {
			return TargetedRobustnessResult{}, err
		}
		exec, err := framework.NewExecutor(p.fw, net, 1)
		if err != nil {
			return TargetedRobustnessResult{}, err
		}
		// One gradient computation ≈ forward + backward (3× forward
		// FLOPs) plus the executor's dispatches.
		perPass := 3*float64(net.FLOPsPerSample())/cm.Throughput +
			float64(exec.Stats().InferDispatches)*cm.DispatchOverhead
		row := JSMARow{
			Label:              fmt.Sprintf("%s (%s)", p.fw.Short(), p.settings.Short()),
			ThirdLayer:         thirdLayerDesc(p.settings),
			Regularization:     p.fw.Regularizer(),
			Success:            out.SuccessRate,
			MeanBackwardPasses: out.MeanBackwardPasses,
			CraftModelMinutes:  craftCampaignAttempts * out.MeanBackwardPasses * perPass / 60,
		}
		res.Rows = append(res.Rows, row)
	}
	tbl := metrics.NewTable(append([]string{"Model", "3rd layer", "Regularization"},
		digitsHeader(source)...)...)
	for _, row := range res.Rows {
		cells := []string{row.Label, row.ThirdLayer, row.Regularization}
		for t := 0; t < 10; t++ {
			if t == source {
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3f", row.Success[t]))
		}
		tbl.AddRow(cells...)
	}
	timeTbl := metrics.NewTable("Model", "Mean grad passes/attempt", "Campaign crafting time (model min)")
	for _, row := range res.Rows {
		timeTbl.AddRow(row.Label, fmt.Sprintf("%.1f", row.MeanBackwardPasses), fmt.Sprintf("%.0f", row.CraftModelMinutes))
	}
	res.Text = res.Title + "\n\n" + tbl.String() + "\nTable VIII analogue (crafting cost):\n" + timeTbl.String()
	return res, nil
}

func digitsHeader(source int) []string {
	var h []string
	for t := 0; t < 10; t++ {
		if t == source {
			continue
		}
		h = append(h, fmt.Sprintf("->%d", t))
	}
	return h
}

// thirdLayerDesc renders Table IX's third-layer column for the MNIST
// architectures.
func thirdLayerDesc(settings framework.ID) string {
	switch settings {
	case framework.TensorFlow:
		return "3136 -> 1024"
	case framework.Caffe:
		return "800 -> 500"
	case framework.Torch:
		return "576 -> 200"
	default:
		return "?"
	}
}

// SummaryTable reproduces Table VI (MNIST) or Table VII (CIFAR-10): the
// baseline, dataset-dependent and framework-dependent sections combined.
func (s *Suite) SummaryTable(ctx context.Context, ds framework.DatasetID) (string, error) {
	base, err := s.Baseline(ctx, ds)
	if err != nil {
		return "", err
	}
	dataDep, err := s.DatasetDependent(ctx, ds)
	if err != nil {
		return "", err
	}
	fwDep, err := s.FrameworkDependent(ctx, ds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s: Configurations for Training %s\n\n", tableNumber(ds), ds)
	b.WriteString("(a) Baseline Default Comparison\n")
	b.WriteString(renderTimeAccuracyTable("", base.Rows, true))
	b.WriteString("\n(b) Dataset-dependent Default Comparison (GPU)\n")
	b.WriteString(renderTimeAccuracyTable("", dataDep.Rows, false))
	b.WriteString("\n(c) Framework Default Comparison (GPU)\n")
	b.WriteString(renderTimeAccuracyTable("", fwDep.Rows, false))
	return b.String(), nil
}

// renderTimeAccuracyTable renders rows in the paper's table layout. When
// withDevice is set the device column is included (baseline tables).
func renderTimeAccuracyTable(title string, rows []metrics.RunResult, withDevice bool) string {
	header := []string{"Framework"}
	if withDevice {
		header = append(header, "Device")
	}
	header = append(header, "Default Settings",
		"Train model(s)", "Test model(s)", "Accuracy(%)",
		"Train wall(s)", "Epochs", "Converged")
	tbl := metrics.NewTable(header...)
	for _, r := range rows {
		cells := []string{r.Framework}
		if withDevice {
			cells = append(cells, r.Device)
		}
		if r.Failed {
			// Failed cells keep their identification columns so a
			// partially failed matrix still renders row-for-row.
			cells = append(cells, r.Settings, "-", "-", "FAILED", "-", "-", "false")
			tbl.AddRow(cells...)
			continue
		}
		cells = append(cells, r.Settings,
			metrics.FormatSeconds(r.Train.ModelSeconds),
			metrics.FormatSeconds(r.Test.ModelSeconds),
			metrics.FormatPct(r.AccuracyPct),
			metrics.FormatSeconds(r.Train.WallSeconds),
			fmt.Sprintf("%d", r.Epochs),
			fmt.Sprintf("%v", r.Converged))
		tbl.AddRow(cells...)
	}
	if title == "" {
		return tbl.String()
	}
	return title + "\n\n" + tbl.String()
}

func figNumber(ds framework.DatasetID, mnistFig, cifarFig int) int {
	if ds == framework.MNIST {
		return mnistFig
	}
	return cifarFig
}

func tableNumber(ds framework.DatasetID) string {
	if ds == framework.MNIST {
		return "VI"
	}
	return "VII"
}

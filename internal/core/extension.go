package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// NoisePoint is one measurement of the noise-sensitivity sweep.
type NoisePoint struct {
	Difficulty  float64
	AccuracyPct float64
}

// NoiseSensitivityResult carries the extension experiment.
type NoiseSensitivityResult struct {
	Title  string
	Series map[string][]NoisePoint
	Text   string
}

// NoiseSensitivity is an extension beyond the paper's figures: the paper
// conjectures (Sections I/IV) that frameworks exhibit "different
// sensitivity boundaries over potential biases or noise levels inherent
// in different training datasets" but does not quantify it. This sweep
// trains each framework's MNIST default at increasing synthetic-data
// difficulty (distortion + noise) and reports the accuracy curve,
// exposing where each configuration's accuracy cliff sits.
func (s *Suite) NoiseSensitivity(ctx context.Context, levels []float64) (NoiseSensitivityResult, error) {
	if len(levels) == 0 {
		levels = []float64{0.2, 0.5, 0.8, 1.0}
	}
	res := NoiseSensitivityResult{
		Title:  "Extension: accuracy vs dataset noise/distortion level (MNIST defaults)",
		Series: make(map[string][]NoisePoint),
	}
	for _, fw := range framework.All {
		for _, diff := range levels {
			acc, err := s.trainAtDifficulty(ctx, fw, diff)
			if err != nil {
				return NoiseSensitivityResult{}, err
			}
			res.Series[fw.Short()] = append(res.Series[fw.Short()], NoisePoint{Difficulty: diff, AccuracyPct: acc})
		}
	}
	tbl := metrics.NewTable(append([]string{"Difficulty"}, shortNames()...)...)
	for i, diff := range levels {
		row := []string{fmt.Sprintf("%.2f", diff)}
		for _, fw := range framework.All {
			row = append(row, metrics.FormatPct(res.Series[fw.Short()][i].AccuracyPct))
		}
		tbl.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(res.Title + "\n\n")
	b.WriteString(tbl.String())
	res.Text = b.String()
	return res, nil
}

func shortNames() []string {
	names := make([]string, 0, len(framework.All))
	for _, fw := range framework.All {
		names = append(names, fw.Short())
	}
	return names
}

// trainAtDifficulty trains fw's MNIST default on a fresh synthetic MNIST
// at the given difficulty (outside the suite's dataset cache) and returns
// test accuracy.
func (s *Suite) trainAtDifficulty(ctx context.Context, fw framework.ID, difficulty float64) (float64, error) {
	train, test, err := data.SynthMNIST(data.SynthConfig{
		Train: s.scale.Train, Test: s.scale.Test,
		Seed: s.seed ^ uint64(difficulty*1000), Difficulty: difficulty,
	})
	if err != nil {
		return 0, err
	}
	defaults, err := framework.Defaults(fw, framework.MNIST)
	if err != nil {
		return 0, err
	}
	defaults, dropRate := effectiveDefaults(fw, defaults)
	in, err := framework.InputFor(framework.MNIST)
	if err != nil {
		return 0, err
	}
	rng := tensor.NewRNG(s.seed ^ 0xd1ff ^ uint64(fw))
	net, err := framework.BuildNetwork(fw, framework.MNIST, in, framework.NetworkOptions{
		Device:      device.GPU,
		DropoutRate: dropRate,
		RNG:         rng.Split(),
	})
	if err != nil {
		return 0, err
	}
	if err := nn.InitNetwork(net, defaults.Init, rng.Split()); err != nil {
		return 0, err
	}
	cell := fmt.Sprintf("noise %s difficulty=%.2f", fw.Short(), difficulty)
	r, err := s.newRun(cell, fw, framework.MNIST, defaults, net, train, rng)
	if err != nil {
		return 0, err
	}
	s.progress("noise sweep: %s at difficulty %.2f (%d iters)", fw, difficulty, r.totalIters)
	if err := s.runIters(ctx, r, 0); err != nil {
		return 0, err
	}
	conf, err := s.evaluate(ctx, r.exec, test, r.prep)
	if err != nil {
		return 0, err
	}
	return conf.Accuracy(), nil
}

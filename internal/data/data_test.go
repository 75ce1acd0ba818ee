package data

import (
	"errors"
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestSynthMNISTShapesAndBalance(t *testing.T) {
	train, test, err := SynthMNIST(SynthConfig{Train: 100, Test: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 100 || test.Len() != 40 {
		t.Fatalf("sizes = %d/%d, want 100/40", train.Len(), test.Len())
	}
	wantShape := []int{1, MNISTSize, MNISTSize}
	for i, d := range wantShape {
		if train.SampleShape[i] != d {
			t.Fatalf("sample shape = %v, want %v", train.SampleShape, wantShape)
		}
	}
	counts := make([]int, MNISTClasses)
	for _, l := range train.Labels {
		if l < 0 || l >= MNISTClasses {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10 (balanced)", c, n)
		}
	}
	// Pixels must be valid intensities.
	for _, v := range train.Images.Data() {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
}

func TestSynthMNISTDeterminism(t *testing.T) {
	a, _, err := SynthMNIST(SynthConfig{Train: 30, Test: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SynthMNIST(SynthConfig{Train: 30, Test: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Images.Data() {
		if a.Images.Data()[i] != b.Images.Data()[i] {
			t.Fatal("same seed must regenerate identical data")
		}
	}
	c, _, err := SynthMNIST(SynthConfig{Train: 30, Test: 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Images.Data() {
		if a.Images.Data()[i] != c.Images.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSynthMNISTTrainTestDisjointStreams(t *testing.T) {
	train, test, err := SynthMNIST(SynthConfig{Train: 20, Test: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Same index, same class — but distinct random distortions.
	identical := 0
	sl := MNISTSize * MNISTSize
	for i := 0; i < 20; i++ {
		same := true
		for j := 0; j < sl; j++ {
			if train.Images.Data()[i*sl+j] != test.Images.Data()[i*sl+j] {
				same = false
				break
			}
		}
		if same {
			identical++
		}
	}
	if identical > 0 {
		t.Fatalf("%d test samples identical to train samples", identical)
	}
}

func TestDigitGlyphsAreDistinctive(t *testing.T) {
	// Render each digit with no distortion and verify pairwise pixel
	// distance is substantial — the glyph skeletons must be separable.
	rng := tensor.NewRNG(1)
	clean := glyphParams{scaleX: 1, scaleY: 1, thickness: 0.05}
	imgs := make([][]float64, 10)
	for d := 0; d < 10; d++ {
		imgs[d] = make([]float64, MNISTSize*MNISTSize)
		renderDigit(imgs[d], d, clean, rng)
	}
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			diff := 0.0
			for i := range imgs[a] {
				d := imgs[a][i] - imgs[b][i]
				diff += d * d
			}
			if math.Sqrt(diff) < 2 {
				t.Errorf("digits %d and %d are nearly identical (L2=%v)", a, b, math.Sqrt(diff))
			}
		}
	}
}

func TestSynthCIFARShapesAndRange(t *testing.T) {
	train, test, err := SynthCIFAR10(SynthConfig{Train: 50, Test: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 50 || test.Len() != 20 {
		t.Fatalf("sizes = %d/%d", train.Len(), test.Len())
	}
	wantShape := []int{3, CIFARSize, CIFARSize}
	for i, d := range wantShape {
		if train.SampleShape[i] != d {
			t.Fatalf("sample shape = %v, want %v", train.SampleShape, wantShape)
		}
	}
	for _, v := range train.Images.Data() {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
}

// pixelEntropy is the mean per-pixel Shannon entropy of d in bits, from
// a 32-bin histogram of pixel intensities clamped to [0,1].
func pixelEntropy(d *Dataset) float64 {
	const bins = 32
	var hist [bins]float64
	for _, v := range d.Images.Data() {
		hist[int(math.Min(math.Max(v, 0), 1)*(bins-1))]++
	}
	total := float64(d.Images.Len())
	h := 0.0
	for _, c := range hist {
		if c > 0 {
			h -= c / total * math.Log2(c/total)
		}
	}
	return h
}

func TestEntropyOrderingMNISTBelowCIFAR(t *testing.T) {
	// The paper attributes MNIST's learnability to its low entropy
	// (sparse gray-scale) versus CIFAR-10 (dense colour textures). The
	// synthetic datasets must preserve that ordering.
	mnist, _, err := SynthMNIST(SynthConfig{Train: 60, Test: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cifar, _, err := SynthCIFAR10(SynthConfig{Train: 60, Test: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hm, hc := pixelEntropy(mnist), pixelEntropy(cifar); hm >= hc {
		t.Fatalf("pixel entropy of MNIST %v must be below CIFAR-10's %v", hm, hc)
	}
}

func TestSliceAndSample(t *testing.T) {
	train, _, err := SynthMNIST(SynthConfig{Train: 20, Test: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x, labels, err := train.Slice([]int{3, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	if x.Dim(0) != 3 || len(labels) != 3 {
		t.Fatalf("batch shape %v labels %d", x.Shape(), len(labels))
	}
	if labels[0] != 3%10 || labels[1] != 7%10 {
		t.Fatalf("labels = %v", labels)
	}
	if _, _, err := train.Slice([]int{99}); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-range slice err = %v", err)
	}
	s, l, err := train.Sample(4)
	if err != nil || s.Dim(0) != 1 || l != 4 {
		t.Fatalf("Sample = (%v, %d, %v)", s.Shape(), l, err)
	}
}

func TestSubset(t *testing.T) {
	train, _, err := SynthMNIST(SynthConfig{Train: 20, Test: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := train.Subset(5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 5 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	if _, err := train.Subset(100); !errors.Is(err, ErrConfig) {
		t.Fatalf("oversized subset err = %v", err)
	}
}

func TestBatchesCoverEpochExactly(t *testing.T) {
	train, _, err := SynthMNIST(SynthConfig{Train: 25, Test: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatches(train, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	sizes := []int{}
	for b.epoch == 0 {
		x, labels, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b.epoch > 0 {
			// Next() rolled into a new epoch before producing this batch;
			// it belongs to epoch 1.
			break
		}
		seen += len(labels)
		sizes = append(sizes, x.Dim(0))
	}
	if seen != 25 {
		t.Fatalf("epoch covered %d samples, want 25", seen)
	}
	if sizes[len(sizes)-1] != 5 {
		t.Fatalf("final short batch = %d, want 5", sizes[len(sizes)-1])
	}
}

func TestBatchesShuffleChangesOrder(t *testing.T) {
	train, _, err := SynthMNIST(SynthConfig{Train: 40, Test: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(100)
	b, err := NewBatches(train, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, l1, err := b.Next()
	if err != nil {
		t.Fatal(err)
	}
	_, l2, err := b.Next() // triggers epoch 2 reshuffle
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range l1 {
		if l1[i] != l2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shuffled epochs produced identical order")
	}
}

func TestBatchesRejectsBadConfig(t *testing.T) {
	train, _, err := SynthMNIST(SynthConfig{Train: 10, Test: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatches(train, 0, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("batch size 0 err = %v", err)
	}
	empty := &Dataset{Name: "empty", Classes: 10, SampleShape: []int{1, 2, 2}, Images: tensor.New(0, 1, 2, 2)}
	if _, err := NewBatches(empty, 4, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty dataset err = %v", err)
	}
}

func TestSynthConfigValidation(t *testing.T) {
	if _, _, err := SynthMNIST(SynthConfig{Train: 0, Test: 10}); !errors.Is(err, ErrConfig) {
		t.Fatalf("train=0 err = %v", err)
	}
	if _, _, err := SynthCIFAR10(SynthConfig{Train: 10, Test: 10, Difficulty: 3}); !errors.Is(err, ErrConfig) {
		t.Fatalf("difficulty=2 err = %v", err)
	}
}

func TestDifficultyScalesNoise(t *testing.T) {
	easy, _, err := SynthCIFAR10(SynthConfig{Train: 30, Test: 10, Seed: 20, Difficulty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := SynthCIFAR10(SynthConfig{Train: 30, Test: 10, Seed: 20, Difficulty: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Class centroids should be farther apart (relative to scatter) in the
	// easy dataset. Proxy: mean within-class variance is lower when easy.
	variance := func(d *Dataset) float64 {
		sl := 3 * CIFARSize * CIFARSize
		var total float64
		for c := 0; c < CIFARClasses; c++ {
			// Collect this class's samples.
			var idx []int
			for i, l := range d.Labels {
				if l == c {
					idx = append(idx, i)
				}
			}
			mean := make([]float64, sl)
			for _, i := range idx {
				for j := 0; j < sl; j++ {
					mean[j] += d.Images.Data()[i*sl+j]
				}
			}
			for j := range mean {
				mean[j] /= float64(len(idx))
			}
			for _, i := range idx {
				for j := 0; j < sl; j++ {
					dv := d.Images.Data()[i*sl+j] - mean[j]
					total += dv * dv
				}
			}
		}
		return total
	}
	if variance(easy) >= variance(hard) {
		t.Fatal("difficulty must increase within-class variance")
	}
}

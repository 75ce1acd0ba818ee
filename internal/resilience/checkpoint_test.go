package resilience

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/optim"
	"repro/internal/tensor"
)

func sampleCheckpoint(cell string) *Checkpoint {
	return &Checkpoint{
		Cell:      cell,
		Iteration: 42,
		Attempt:   1,
		LRScale:   0.5,
		Params:    []byte{1, 2, 3, 4},
		Optim: optim.State{
			Algorithm: "sgd",
			Iteration: 42,
			Slots:     [][]float64{{0.1, 0.2}, {0.3}},
		},
		Batches: data.BatchState{
			Epoch: 2, Pos: 7, Order: []int{3, 1, 2, 0}, HasRNG: true,
			RNG: tensor.NewRNG(9).State(),
		},
		DropoutRNGs: []tensor.RNGState{tensor.NewRNG(5).State()},
		LossIters:   []int{0, 10, 20},
		LossValues:  []float64{2.3, 1.7, 1.1},
		LastLoss:    1.1,
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint("TF default on MNIST @lenet")
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cell != c.Cell || got.Iteration != c.Iteration || got.Attempt != c.Attempt || got.LRScale != c.LRScale {
		t.Fatalf("header fields differ: %+v vs %+v", got, c)
	}
	if !bytes.Equal(got.Params, c.Params) {
		t.Fatal("Params bytes differ")
	}
	if len(got.Optim.Slots) != 2 || got.Optim.Slots[0][1] != 0.2 {
		t.Fatalf("optimizer state differs: %+v", got.Optim)
	}
	if got.Batches.Pos != 7 || len(got.Batches.Order) != 4 {
		t.Fatalf("batch state differs: %+v", got.Batches)
	}
	if len(got.DropoutRNGs) != 1 || len(got.LossValues) != 3 || got.LastLoss != 1.1 {
		t.Fatalf("trailer fields differ: %+v", got)
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"short":       []byte("DLC"),
		"bad magic":   []byte("NOPE\x01rest"),
		"bad version": []byte("DLCK\x7frest"),
		"torn body":   []byte("DLCK\x01"),
	}
	for name, raw := range cases {
		if _, err := DecodeCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: got %v, want ErrCheckpoint", name, err)
		}
	}
}

func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := "Torch default on CIFAR-10 @cifar-quick"
	if _, found, err := st.Load(cell); err != nil || found {
		t.Fatalf("Load before Save: found=%v err=%v", found, err)
	}
	if err := st.Save(sampleCheckpoint(cell)); err != nil {
		t.Fatal(err)
	}
	got, found, err := st.Load(cell)
	if err != nil || !found {
		t.Fatalf("Load after Save: found=%v err=%v", found, err)
	}
	if got.Iteration != 42 {
		t.Fatalf("loaded Iteration = %d, want 42", got.Iteration)
	}
	// No stray temp files after an atomic save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestStorePathDistinctCells(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := st.Path("TF default on MNIST @lenet")
	b := st.Path("TF default on MNIST @lenet-alt")
	if a == b {
		t.Fatal("distinct cells mapped to the same checkpoint path")
	}
	if filepath.Ext(a) != ".ckpt" {
		t.Fatalf("unexpected extension on %s", a)
	}
}

func TestStoreLoadRejectsCellMismatch(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := sampleCheckpoint("cell-a")
	// Write cell-a's bytes at cell-b's path to simulate a misplaced file.
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path("cell-b"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("cell-b"); err == nil {
		t.Fatal("Load accepted a checkpoint for the wrong cell")
	}
}

func TestNilStoreIsNoop(t *testing.T) {
	var st *Store
	if err := st.Save(sampleCheckpoint("x")); err != nil {
		t.Fatal(err)
	}
	if _, found, err := st.Load("x"); err != nil || found {
		t.Fatalf("nil store Load: found=%v err=%v", found, err)
	}
}

func TestNewStoreRejectsEmptyDir(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Fatal("NewStore(\"\") succeeded")
	}
}

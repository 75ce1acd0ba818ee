package resilience

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

func sampleCheckpoint(cell string) *Checkpoint {
	return &Checkpoint{
		Cell:      cell,
		Iteration: 42,
		Attempt:   1,
		LRScale:   0.5,
		Params: []ParamRecord{
			{Name: "fc.weight", Shape: []int{2, 2}, Values: []float64{0.5, -1, math.Inf(1), 3}},
			{Name: "fc.bias", Shape: []int{2}, Values: []float64{0, 1e-300}},
		},
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
	if !reflect.DeepEqual(got.Params, c.Params) {
		t.Fatalf("weight records differ: %+v vs %+v", got.Params, c.Params)
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
		"short":     []byte("DLC"),
		"torn body": []byte("DLCK\x02"),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("got %v, want ErrCheckpoint", err)
			}
		})
	}
}

// TestDecodeRejectsCorruptCheckpoints: a valid encoded checkpoint that is
// emptied, cut short, or has its magic or version byte changed is
// rejected with ErrCheckpoint.
func TestDecodeRejectsCorruptCheckpoints(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleCheckpoint("cell").Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	withByte := func(i int, v byte) []byte {
		c := append([]byte(nil), valid...)
		c[i] = v
		return c
	}
	cases := map[string][]byte{
		"empty":       valid[:0],
		"bad magic":   withByte(0, 'X'),
		"bad version": withByte(4, 99),
		"version 1":   withByte(4, 1),
		"truncated":   valid[:len(valid)/2],
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("got %v, want ErrCheckpoint", err)
			}
		})
	}
}

// testNet builds the small network the weight tests restore into: a
// Conv2D whose connection table masks the (out 0, in 1) and (out 1, in 0)
// kernels, then a dense layer of width fcOut. Seeds set the weights.
func testNet(t testing.TB, seed uint64, fcOut int) *nn.Network {
	t.Helper()
	net := nn.NewNetwork("ckpt", []int{2, 4, 4})
	conv, err := nn.NewConv2D(nn.Conv2DConfig{
		Name: "conv1", InC: 2, InH: 4, InW: 4, OutC: 2, Kernel: 3, Stride: 1,
		ConnTable: [][]bool{{true, false}, {false, true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewDense("fc", 2*2*2, fcOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Add(conv, nn.NewFlatten("flat"), fc); err != nil {
		t.Fatal(err)
	}
	if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, tensor.NewRNG(seed)); err != nil {
		t.Fatal(err)
	}
	return net
}

// paramBits returns every weight of net as raw float64 bits.
func paramBits(net *nn.Network) []uint64 {
	var bits []uint64
	for _, p := range net.Params() {
		for _, v := range p.Value.Data() {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestCaptureRestoreRoundTrip: weights captured from one network, written
// in the checkpoint format and read back, restore bit for bit into a
// differently initialised network of the same structure, which then
// computes the same logits. The capture is a copy, so training on after
// it does not move the rollback target.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	src := testNet(t, 1, 3)
	want := paramBits(src)
	c := &Checkpoint{Cell: "round trip", Params: CaptureParams(src)}
	src.Params()[0].Value.Data()[0]++
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dst := testNet(t, 2, 3)
	if reflect.DeepEqual(paramBits(dst), want) {
		t.Fatal("seeds 1 and 2 gave the same weights; the test proves nothing")
	}
	if err := RestoreParams(dst, got.Params); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paramBits(dst), want) {
		t.Fatal("restored weights differ from the captured ones")
	}
	if err := RestoreParams(src, c.Params); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 2, 4, 4)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	a, err := src.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			t.Fatalf("logit %d: %v after restore, %v at capture", i, b.Data()[i], v)
		}
	}
}

// TestRestoreRejectsStructureMismatch: records that differ from the
// network in count, name, shape or length are rejected with
// ErrCheckpoint, and the network keeps its weights.
func TestRestoreRejectsStructureMismatch(t *testing.T) {
	cases := map[string]func(t *testing.T) (*nn.Network, []ParamRecord){
		"count": func(t *testing.T) (*nn.Network, []ParamRecord) {
			recs := CaptureParams(testNet(t, 1, 3))
			return testNet(t, 2, 3), recs[:len(recs)-1]
		},
		"name": func(t *testing.T) (*nn.Network, []ParamRecord) {
			recs := CaptureParams(testNet(t, 1, 3))
			recs[1].Name = "conv2.bias"
			return testNet(t, 2, 3), recs
		},
		"shape": func(t *testing.T) (*nn.Network, []ParamRecord) {
			return testNet(t, 2, 7), CaptureParams(testNet(t, 1, 3))
		},
		"values": func(t *testing.T) (*nn.Network, []ParamRecord) {
			recs := CaptureParams(testNet(t, 1, 3))
			recs[2].Values = recs[2].Values[1:]
			return testNet(t, 2, 3), recs
		},
	}
	for name, mismatch := range cases {
		t.Run(name, func(t *testing.T) {
			dst, recs := mismatch(t)
			before := paramBits(dst)
			if err := RestoreParams(dst, recs); !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("err = %v, want ErrCheckpoint", err)
			}
			if !reflect.DeepEqual(paramBits(dst), before) {
				t.Fatal("a rejected restore changed the network's weights")
			}
		})
	}
}

// TestRestoreReappliesConnTableMask: a weight the connection table masks
// is zero after a restore even when the checkpoint holds a value there.
func TestRestoreReappliesConnTableMask(t *testing.T) {
	src := testNet(t, 1, 3)
	// Index 9 starts the (out 0, in 1) kernel, which the table masks.
	src.Params()[0].Value.Data()[9] = 123
	recs := CaptureParams(src)
	if recs[0].Values[9] != 123 {
		t.Fatal("capture did not copy the poisoned weight")
	}
	dst := testNet(t, 2, 3)
	if err := RestoreParams(dst, recs); err != nil {
		t.Fatal(err)
	}
	if got := dst.Params()[0].Value.Data()[9]; got != 0 {
		t.Fatalf("masked weight survived restore: %v", got)
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

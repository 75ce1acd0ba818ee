package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestInt8KernelLogitsGolden pins the int8 column end to end: the bits of
// engine.NewQuant's logits on seed-initialized (untrained) nets, as
// SHA-256 digests recorded before the int8 GEMM became a tile kernel.
// Integer sums are exact, so no int8 kernel, worker count or build may
// move a bit, and so no int8 accuracy number can move either. The nets
// are untrained, so no float GEMM rounding reaches the weights, and the
// int8 column's float stages (dequantization, ReLU, pooling, LRN,
// the residual add) are plain Go arithmetic. The digests therefore hold
// in the default build and under -tags noasm. They are recorded on
// amd64, where Go fuses no multiply-add; other architectures skip.
func TestInt8KernelLogitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64, where Go fuses no multiply-add")
	}
	tf := func(ds framework.DatasetID) func(in framework.InputShape) (*nn.Network, error) {
		return func(in framework.InputShape) (*nn.Network, error) {
			return framework.BuildNetwork(framework.TensorFlow, ds, in, framework.NetworkOptions{
				Device: device.CPU, DropoutRate: -1, RNG: tensor.NewRNG(3),
			})
		}
	}
	resnet := func(in framework.InputShape) (*nn.Network, error) {
		return framework.BuildResNet(in, framework.NetworkOptions{})
	}
	cases := []struct {
		name   string
		ds     framework.DatasetID
		build  func(framework.InputShape) (*nn.Network, error)
		batch  int
		digest string
	}{
		{"tf-mnist/b1", framework.MNIST, tf(framework.MNIST), 1, "d98d8ec366c38db9"},
		{"tf-mnist/b100", framework.MNIST, tf(framework.MNIST), 100, "5a719d9d67aef7ac"},
		{"tf-cifar/b10", framework.CIFAR10, tf(framework.CIFAR10), 10, "34f6d04e05694852"},
		{"resnet-mnist/b4", framework.MNIST, resnet, 4, "131c66af1062f391"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			in, err := framework.InputFor(c.ds)
			if err != nil {
				t.Fatal(err)
			}
			net, err := c.build(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, tensor.NewRNG(11)); err != nil {
				t.Fatal(err)
			}
			q, err := engine.NewQuant(net, nil)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(c.batch, in.C, in.H, in.W)
			tensor.NewRNG(uint64(17+c.batch)).FillNormal(x, 0, 1)
			logits, err := q.Logits(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			for _, v := range logits.Data() {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != c.digest {
				t.Errorf("%s at GOMAXPROCS %d: logits digest %s, golden %s (int8 kernel in use: %v)",
					c.name, procs, got, c.digest, tensor.HasInt8Kernel())
			}
		}
	}
}

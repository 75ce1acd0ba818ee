//go:build !amd64 || noasm

package tensor

// Without the amd64 assembly (other architectures, or the noasm build
// tag) only the portable kernel exists.
const hasAVX2FMA, hasAVX512 = false, false

func bestGemmKernel() gemmKernel { return kernelPortable }

func packStrip(gemmKernel, *float64, *float64, int, int, int) {
	panic("tensor: no FMA tile kernel in this build")
}

func packStripT(gemmKernel, *float64, *float64, int, int, int) {
	panic("tensor: no FMA tile kernel in this build")
}

func tileFMA(gemmKernel, *float64, *float64, *float64, *uint8, int, int, int, int, int, int, int, int, int, *float64, int) {
	panic("tensor: no FMA tile kernel in this build")
}

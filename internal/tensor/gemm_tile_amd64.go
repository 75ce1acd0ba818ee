//go:build amd64 && !noasm

package tensor

// cpuGemmFeatures reports whether the host can run the AVX2+FMA and the
// AVX-512F tile kernels and the AVX-512 VNNI int8 kernel, including OS
// support for YMM, opmask and ZMM state. Implemented in
// gemm_tile_amd64.s via CPUID/XGETBV.
func cpuGemmFeatures() (avx2fma, avx512, vnni bool)

// gemmTileAVX512 and gemmTileAVX2 are the FMA tile kernels; both follow
// the contract documented in gemm_tile_amd64.s and at tileFMA.
//
//go:noescape
func gemmTileAVX512(a, b, c *float64, keep *uint8, ars, aks, ldb, ldc, rows, cols, k4, tail, add int, ph *float64, mode int)

//go:noescape
func gemmTileAVX2(a, b, c *float64, keep *uint8, ars, aks, ldb, ldc, rows, cols, k4, tail, add int, ph *float64, mode int)

// packStripAVX512 and packStripAVX2 copy a k×cols strip of B (row
// stride ldb) into an aligned k×8 or k×4 buffer, zero-filling the lanes
// past cols.
//
//go:noescape
func packStripAVX512(dst, src *float64, ldb, k, cols int)

//go:noescape
func packStripAVX2(dst, src *float64, ldb, k, cols int)

// packStripTAVX512 and packStripTAVX2 gather the k×cols strip whose
// column r is the contiguous run at src+idx[r] into an aligned k×8 or
// k×4 buffer, zero-filling the lanes past cols.
//
//go:noescape
func packStripTAVX512(dst, src *float64, idx *int64, k, cols int)

//go:noescape
func packStripTAVX2(dst, src *float64, idx *int64, k, cols int)

var hasAVX2FMA, hasAVX512, hasVNNI = cpuGemmFeatures()

// bestGemmKernel is the widest tile kernel the host runs.
func bestGemmKernel() gemmKernel {
	switch {
	case hasAVX512:
		return kernelAVX512
	case hasAVX2FMA:
		return kernelAVX2
	}
	return kernelPortable
}

// packStrip runs kern's strip packer; see gemmArgs.tile.
func packStrip(kern gemmKernel, dst, src *float64, ldb, k, cols int) {
	if kern == kernelAVX512 {
		packStripAVX512(dst, src, ldb, k, cols)
		return
	}
	packStripAVX2(dst, src, ldb, k, cols)
}

// packStripT runs kern's transposing strip packer: column r < cols of
// the strip is the run of k values at src[r*ld:].
func packStripT(kern gemmKernel, dst, src *float64, ld, k, cols int) {
	var idx [8]int64
	for r := range min(cols, len(idx)) {
		idx[r] = int64(r * ld)
	}
	if kern == kernelAVX512 {
		packStripTAVX512(dst, src, &idx[0], k, cols)
		return
	}
	packStripTAVX2(dst, src, &idx[0], k, cols)
}

// tileFMA runs kern's assembly tile kernel; see gemmArgs.tile.
func tileFMA(kern gemmKernel, a, b, c *float64, keep *uint8, ars, aks, ldb, ldc, rows, cols, k4, tail, add int, ph *float64, mode int) {
	if kern == kernelAVX512 {
		gemmTileAVX512(a, b, c, keep, ars, aks, ldb, ldc, rows, cols, k4, tail, add, ph, mode)
		return
	}
	gemmTileAVX2(a, b, c, keep, ars, aks, ldb, ldc, rows, cols, k4, tail, add, ph, mode)
}

//go:build amd64 && !noasm

package tensor

// gemmInt8VNNI and gemmInt8AVX2 are the int8 tile kernels; both follow
// the contract documented in quant_int8_amd64.s and at int8Kernel.rows.
//
//go:noescape
func gemmInt8VNNI(c *int32, a, b *int8, ldc, k, rows, n int)

//go:noescape
func gemmInt8AVX2(c *int32, a, b *int8, ldc, k, rows, n int)

// bestInt8Kernel is the widest int8 tile kernel the host runs.
func bestInt8Kernel() int8Kernel {
	switch {
	case hasVNNI:
		return int8VNNI
	case hasAVX2FMA:
		return int8AVX2
	}
	return int8Portable
}

// tileInt8Asm runs kern's assembly kernel over rows (at most
// kern.rows()) of A against all n rows of B.
func tileInt8Asm(kern int8Kernel, c []int32, a, b []int8, ldc, k, rows, n int) {
	if kern == int8VNNI {
		gemmInt8VNNI(&c[0], &a[0], &b[0], ldc, k, rows, n)
		return
	}
	gemmInt8AVX2(&c[0], &a[0], &b[0], ldc, k, rows, n)
}

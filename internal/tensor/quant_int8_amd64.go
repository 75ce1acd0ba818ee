//go:build amd64 && !noasm

package tensor

// dotInt8Asm reduces exactly k elements (k a positive multiple of 16)
// of the two int8 vectors into *acc using AVX2 integer lanes:
// sign-extend 16 bytes to int16 (VPMOVSXBW), multiply adjacent pairs
// into int32 (VPMADDWD), accumulate (VPADDD). Integer accumulation is
// exact, so lane-reduction order cannot affect the result — unlike the
// float tile there is no rounding caveat. Implemented in
// quant_int8_amd64.s; gated by the same AVX2 CPUID check as the float
// micro-kernel (VPMADDWD on YMM is an AVX2 instruction).
//
//go:noescape
func dotInt8Asm(a, b *int8, k int, acc *int32)

// dotInt8 dispatches the int8 dot product: vector body plus scalar tail
// when the host has AVX2, the portable scalar reduction otherwise.
func dotInt8(a, b []int8) int32 {
	k := len(a)
	if !hasAVX2FMA || k < 16 {
		return dotInt8Generic(a, b)
	}
	k16 := k &^ 15
	var acc int32
	dotInt8Asm(&a[0], &b[0], k16, &acc)
	if k16 < k {
		acc += dotInt8Generic(a[k16:], b[k16:])
	}
	return acc
}

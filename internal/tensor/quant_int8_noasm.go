//go:build !amd64 || noasm

package tensor

// dotInt8 falls back to the portable scalar reduction without the amd64
// assembly (other architectures, or the noasm build tag). Results are
// identical to the vector kernel: int32 integer accumulation is exact in
// any order.
func dotInt8(a, b []int8) int32 { return dotInt8Generic(a, b) }

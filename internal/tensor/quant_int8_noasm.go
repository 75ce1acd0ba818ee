//go:build !amd64 || noasm

package tensor

// Without the amd64 assembly (other architectures, or the noasm build
// tag) only the portable int8 kernel exists.
func bestInt8Kernel() int8Kernel { return int8Portable }

func tileInt8Asm(int8Kernel, []int32, []int8, []int8, int, int, int, int) {
	panic("tensor: no int8 tile kernel in this build")
}

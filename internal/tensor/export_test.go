package tensor

// Test-only exports for the external layer test (layer_ref_test.go).

// RefGemm, RefGemmTransA and RefGemmTransB are the scalar references of
// the exported kernels; fma selects the FMA kernels' rounding.
var (
	RefGemm       = refGemm
	RefGemmTransA = refGemmTransA
	RefGemmTransB = refGemmTransB
)

// RefGemmWholeK is the reference of GemmWholeK (B stored k×n).
func RefGemmWholeK(c, a, b []float64, m, k, n int, accumulate, fma bool) {
	refWholeK(c, refOperands{a: a, ars: k, aks: 1, b: b, bks: n, bjs: 1, m: m, k: k, n: n}, accumulate, fma)
}

// KernelsOnHost names the micro-kernels this build and host run.
func KernelsOnHost() []string {
	var names []string
	for _, k := range kernelsOnHost() {
		names = append(names, k.String())
	}
	return names
}

// WithKernel runs f with the named micro-kernel forced.
func WithKernel(name string, f func()) {
	for _, k := range kernelsOnHost() {
		if k.String() == name {
			withKernel(k, f)
			return
		}
	}
	panic("tensor: no kernel " + name + " on this host")
}

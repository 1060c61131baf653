//go:build !amd64 || purego

package mathx

// HasAVX2 is false in a build without the assembly kernels: every caller
// runs its portable kernel.
const HasAVX2 = false

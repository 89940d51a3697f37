//go:build !amd64 || purego

package num

// HaveAVX2 is false where no AVX2 body is built: the Go loops run alone.
const HaveAVX2 = false

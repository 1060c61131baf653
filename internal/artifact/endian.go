package artifact

import "unsafe"

// hostLittle reports whether this machine stores integers little-endian —
// the only byte order the v4 container's zero-copy views can serve, since
// payloads are raw native slices on write and reinterpreted slices on read.
// Every mainstream Go target (amd64, arm64, riscv64, 386, arm, wasm) is
// little-endian; on the big-endian exceptions (s390x, some mips/ppc
// variants) every reader and writer refuses rather than handle
// byte-swapped artifacts.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Supported reports whether this host can read and write v4 artifacts.
func Supported() bool { return hostLittle }

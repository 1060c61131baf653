// Package procmaps reads the calling process's memory map so tests can
// check that an artifact is unmapped once every holder has closed it
// (DESIGN.md §12, "Lifetime"). Artifacts are mmap-attached on Linux only,
// and only Linux has /proc/self/maps; elsewhere the check skips.
package procmaps

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Mapping is one file-backed line of /proc/self/maps.
type Mapping struct {
	Inode uint64
	Path  string // as the kernel prints it: " (deleted)" follows an unlinked file
}

// Under returns the process's file mappings whose path starts with prefix,
// a file or a directory. It skips t where artifacts are not mmap-attached.
func Under(t testing.TB, prefix string) []Mapping {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("artifacts are mmap-attached on linux only")
	}
	if p, err := filepath.EvalSymlinks(prefix); err == nil {
		prefix = p // the kernel prints resolved paths
	}
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no process map to check: %v", err)
	}
	var out []Mapping
	for _, line := range strings.Split(string(raw), "\n") {
		// address perms offset dev inode path
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		path := strings.Join(f[5:], " ")
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		ino, err := strconv.ParseUint(f[4], 10, 64)
		if err != nil {
			t.Fatalf("procmaps: bad inode in %q", line)
		}
		out = append(out, Mapping{Inode: ino, Path: path})
	}
	return out
}

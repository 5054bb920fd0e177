package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printEnv prints the environment block every run starts with.
func printEnv(w io.Writer, workload string, seed int64, dataDir string) {
	fmt.Fprintf(w, "# env workload=%s seed=%d\n", workload, seed)
	fmt.Fprintf(w, "# env GOMAXPROCS=%d NumCPU=%d GOOS=%s GOARCH=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# env cpu=%q\n", cpuModel())
	fmt.Fprintf(w, "# env go=%s\n", runtime.Version())
	fmt.Fprintf(w, "# env revision=%s\n", gitRevision())
	fmt.Fprintf(w, "# env data_dir_fs=%s\n", fsType(dataDir))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitRevision reads the checked-out commit from .git without running git;
// a source tree that is not a git checkout reports "unknown".
func gitRevision() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref
			}
			if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			if rev := packedRef(filepath.Join(dir, ".git", "packed-refs"), ref); rev != "" {
				return rev
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func packedRef(path, ref string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return ""
}

// fsType returns the filesystem type of the mount holding dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		under := abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")
		if under && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}

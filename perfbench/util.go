package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/tensor"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the peak resident set size at the current size
// (Linux: clear_refs 5), so peakRSSMB measures the phase that follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MiB since start or
// the last resetPeakRSS.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts describes the machine and build a result was measured on.
func hostFacts() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"disk":       "in-memory checkpoint.FS: real disk behaviour is not measured",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// allFinite reports whether every value of every matrix encoded in blob
// (nn.Network.EncodeParams format) is finite.
func allFinite(blob []byte) error {
	mats, err := tensor.DecodeMats(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	for i, m := range mats {
		for _, v := range m.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("parameter matrix %d holds %g", i, v)
			}
		}
	}
	return nil
}

// memFS is an in-memory checkpoint.FS. It keeps checkpoint writes off the
// disk, so the benchmark measures encoding and copying, not the device.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

type memFile struct {
	fs   *memFS
	path string
	buf  bytes.Buffer
}

func (f *memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *memFile) Sync() error                 { return nil }
func (f *memFile) Close() error {
	f.fs.mu.Lock()
	f.fs.files[f.path] = f.buf.Bytes()
	f.fs.mu.Unlock()
	return nil
}

func (m *memFS) Create(path string) (checkpoint.File, error) {
	return &memFile{fs: m, path: path}, nil
}

func (m *memFS) Open(path string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", path, os.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return fmt.Errorf("memfs: rename %s: %w", oldpath, os.ErrNotExist)
	}
	delete(m.files, oldpath)
	m.files[newpath] = b
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("memfs: remove %s: %w", path, os.ErrNotExist)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for p := range m.files {
		if d, name, ok := strings.Cut(p, "/"); ok && d == dir && !strings.Contains(name, "/") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) SyncDir(string) error { return nil }

// bytesStored is the total size of the files held.
func (m *memFS) bytesStored() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.files {
		n += len(b)
	}
	return n
}

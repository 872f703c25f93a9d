package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed. The subcommands report to stdout, so comparing these
// strings checks the full CLI surface, not just the artifacts.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput: %s", ferr, out)
	}
	return out
}

// workersValues is the -workers sweep: the sequential baseline, zero, a
// negative count, and more workers than the host has CPUs. Every value
// must be accepted and produce identical results.
func workersValues() []string {
	return []string{"1", "0", "-4", fmt.Sprint(runtime.NumCPU() + 13)}
}

// TestDetectVerifyWorkersFlagByteIdentical drives detect at every
// -workers value, and verify (which has no worker count) on every pass,
// over the same artifacts and requires identical reports.
func TestDetectVerifyWorkersFlagByteIdentical(t *testing.T) {
	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	marked := filepath.Join(dir, "m.cdfg")
	rec := filepath.Join(dir, "r.json")
	schedPath := filepath.Join(dir, "s.txt")
	if err := cmdGen([]string{"-design", "dac", "-o", design}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEmbed([]string{"-in", design, "-sig", "flag-test", "-n", "2",
		"-tau", "16", "-k", "3", "-epsilon", "0.4", "-out", marked, "-record", rec}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSchedule([]string{"-in", marked, "-out", schedPath}); err != nil {
		t.Fatal(err)
	}

	var refDetect, refVerify string
	for _, w := range workersValues() {
		det := captureStdout(t, func() error {
			return cmdDetect([]string{"-in", design, "-schedule", schedPath,
				"-record", rec, "-workers", w})
		})
		ver := captureStdout(t, func() error {
			return cmdVerify([]string{"-in", design, "-schedule", schedPath,
				"-sig", "flag-test", "-n", "2", "-tau", "16", "-k", "3",
				"-epsilon", "0.4"})
		})
		if refDetect == "" {
			refDetect, refVerify = det, ver
			continue
		}
		if det != refDetect {
			t.Fatalf("-workers %s: detect report diverged: %q vs %q", w, det, refDetect)
		}
		if ver != refVerify {
			t.Fatalf("pass with -workers %s: verify report diverged: %q vs %q", w, ver, refVerify)
		}
	}
}

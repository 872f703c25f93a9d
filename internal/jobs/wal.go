package jobs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Persistence layout (Config.Dir), following internal/store/wal.go:
//
//	jobs.wal   append-only record log, replayed over the snapshot on Open
//	jobs.snap  full live-job set at the last compaction (atomic rename)
//
// Both files share one framed text format, binary-safe via an explicit
// byte length and self-verifying via a content hash:
//
//	<header>\n                  "lwmjobs-wal v1" / "lwmjobs-snap v1"
//	rec <kind> <sha256> <nbytes>\n
//	<nbytes of JSON body>\n
//	...
//
// Record kinds:
//
//	job    a full Job document — submission (log) or compacted state
//	       (snapshot)
//	state  a lifecycle transition: {id, state, attempt, error, result,
//	       updated_unix_nano}
//	hook   webhook-delivery completion: {id, attempts, delivered}
//	drop   retention eviction of a terminal job: {id}
//
// An append that pushes jobs.wal past maxBytes triggers compaction: the
// live set is written to jobs.snap.tmp as one job record per job,
// renamed over jobs.snap, and the log truncated back to its header.
// Replay tolerates a torn trailing record (the SIGKILL-mid-append case)
// by truncating the log back to the last whole record; a corrupt record
// body (hash mismatch) is an error, not a skip. Appends are not fsynced:
// the daemon survives its own death (the page cache persists process
// exit), not a power cut mid-write.

const (
	jwalHeader  = "lwmjobs-wal v1"
	jsnapHeader = "lwmjobs-snap v1"

	recKindJob   = "job"
	recKindState = "state"
	recKindHook  = "hook"
	recKindDrop  = "drop"
)

// jwal owns the two persistence files. Appends serialize on mu.
type jwal struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	f        *os.File
	n        atomic.Int64 // current jobs.wal size
	compacts atomic.Uint64
	closed   bool
}

func (w *jwal) walPath() string  { return filepath.Join(w.dir, "jobs.wal") }
func (w *jwal) snapPath() string { return filepath.Join(w.dir, "jobs.snap") }

// openJobsWAL prepares dir and opens the log for appending, creating it
// (with its header) when absent. Replay happens separately so the caller
// controls where the records land.
func openJobsWAL(dir string, maxBytes int64) (*jwal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	w := &jwal{dir: dir, maxBytes: maxBytes}
	f, err := os.OpenFile(w.walPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	w.f = f
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(jwalHeader + "\n"); err != nil {
			f.Close()
			return nil, fmt.Errorf("jobs: writing wal header: %w", err)
		}
	}
	st, _ = f.Stat()
	w.n.Store(st.Size())
	return w, nil
}

// replay feeds every persisted record — snapshot first, then the log —
// to apply, in write order. A torn trailing log record is discarded by
// truncating the log back to the last whole record; a torn snapshot
// record is an error (snapshots are written atomically and must be
// whole).
func (w *jwal) replay(apply func(kind string, body []byte) error) error {
	if err := replayJobsFile(w.snapPath(), jsnapHeader, apply); err != nil {
		return err
	}
	good, err := replayJobsLog(w.f, apply)
	if err != nil {
		return err
	}
	if good < w.n.Load() {
		if err := w.f.Truncate(good); err != nil {
			return fmt.Errorf("jobs: truncating torn wal tail: %w", err)
		}
		w.n.Store(good)
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// replayJobsFile replays a whole framed file (the snapshot). A missing
// file is fine; a torn or corrupt record is an error.
func replayJobsFile(path, header string, apply func(string, []byte) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if err := expectJobsHeader(br, path, header); err != nil {
		return err
	}
	for {
		kind, body, err := readJobsRecord(br, path)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := apply(kind, body); err != nil {
			return err
		}
	}
}

// replayJobsLog replays the open jobs.wal from the start and returns the
// byte offset just past the last whole, valid record.
func replayJobsLog(f *os.File, apply func(string, []byte) error) (good int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("jobs: %w", err)
	}
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	if err := expectJobsHeader(br, f.Name(), jwalHeader); err != nil {
		return 0, err
	}
	good = cr.n - int64(br.Buffered())
	for {
		kind, body, rerr := readJobsRecord(br, f.Name())
		if rerr == io.EOF {
			return good, nil
		}
		if rerr != nil {
			if isJobsTorn(rerr) {
				return good, nil // crash mid-append: drop the tail
			}
			return 0, rerr
		}
		if err := apply(kind, body); err != nil {
			return 0, err
		}
		good = cr.n - int64(br.Buffered())
	}
}

// tornJobsError marks an incomplete trailing record.
type tornJobsError struct{ msg string }

func (e *tornJobsError) Error() string { return e.msg }
func isJobsTorn(err error) bool        { _, ok := err.(*tornJobsError); return ok }

func expectJobsHeader(br *bufio.Reader, path, want string) error {
	line, err := br.ReadString('\n')
	if err != nil {
		return &tornJobsError{fmt.Sprintf("jobs: %s: missing header", path)}
	}
	if strings.TrimSuffix(line, "\n") != want {
		return fmt.Errorf("jobs: %s: bad header %q (want %q)", path, strings.TrimSpace(line), want)
	}
	return nil
}

func bodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// readJobsRecord reads one framed record and verifies its content hash.
// io.EOF means a clean end; *tornJobsError an incomplete trailer.
func readJobsRecord(br *bufio.Reader, path string) (kind string, body []byte, err error) {
	line, err := br.ReadString('\n')
	if err == io.EOF && line == "" {
		return "", nil, io.EOF
	}
	if err != nil {
		return "", nil, &tornJobsError{fmt.Sprintf("jobs: %s: torn record header", path)}
	}
	var sum string
	var nbytes int
	if _, err := fmt.Sscanf(line, "rec %s %s %d\n", &kind, &sum, &nbytes); err != nil || nbytes < 0 {
		return "", nil, fmt.Errorf("jobs: %s: malformed record header %q", path, strings.TrimSpace(line))
	}
	switch kind {
	case recKindJob, recKindState, recKindHook, recKindDrop:
	default:
		return "", nil, fmt.Errorf("jobs: %s: unknown record kind %q", path, kind)
	}
	buf := make([]byte, nbytes+1) // body + trailing newline
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", nil, &tornJobsError{fmt.Sprintf("jobs: %s: torn record body", path)}
	}
	if buf[nbytes] != '\n' {
		return "", nil, fmt.Errorf("jobs: %s: %s record missing trailer", path, kind)
	}
	body = buf[:nbytes]
	if bodySum(body) != sum {
		return "", nil, fmt.Errorf("jobs: %s: %s record fails content hash", path, kind)
	}
	return kind, body, nil
}

// writeJobsRecord frames one record onto w.
func writeJobsRecord(w io.Writer, kind string, body []byte) error {
	if _, err := fmt.Fprintf(w, "rec %s %s %d\n", kind, bodySum(body), len(body)); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err := w.Write([]byte{'\n'})
	return err
}

// append logs one record. When the log outgrows maxBytes it is
// compacted: live() supplies the surviving job documents for the
// snapshot and the log restarts empty.
func (w *jwal) append(kind string, body []byte, live func() [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("jobs: wal closed")
	}
	var buf strings.Builder
	if err := writeJobsRecord(&buf, kind, body); err != nil {
		return err
	}
	if _, err := w.f.WriteString(buf.String()); err != nil {
		return err
	}
	w.n.Add(int64(buf.Len()))
	if w.n.Load() > w.maxBytes {
		return w.compactLocked(live())
	}
	return nil
}

// compactLocked snapshots the live job documents and truncates the log.
// Caller holds mu.
func (w *jwal) compactLocked(docs [][]byte) error {
	tmp := w.snapPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err = bw.WriteString(jsnapHeader + "\n"); err == nil {
		for _, doc := range docs {
			if err = writeJobsRecord(bw, recKindJob, doc); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, w.snapPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: installing snapshot: %w", err)
	}
	if err := w.f.Truncate(int64(len(jwalHeader) + 1)); err != nil {
		return fmt.Errorf("jobs: truncating wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	w.n.Store(int64(len(jwalHeader) + 1))
	w.compacts.Add(1)
	return nil
}

func (w *jwal) size() int64         { return w.n.Load() }
func (w *jwal) compactions() uint64 { return w.compacts.Load() }

func (w *jwal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// countingReader counts bytes handed to the bufio layer, letting replay
// compute the offset of the last whole record (reader position minus
// what bufio still buffers).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

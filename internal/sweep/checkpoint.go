package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
)

// ckSchema identifies the checkpoint encoding: one JSON header line binding
// the file to a grid fingerprint, then one compact CellResult per line.
const ckSchema = "spotweb-sweep-ckpt/v1"

type ckHeader struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
}

// gridFingerprint hashes the grid's canonical JSON so a checkpoint can only
// resume the exact grid that wrote it.
func gridFingerprint(g Grid) string {
	b, _ := json.Marshal(g)
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadCheckpoint reads the completed cells of an earlier run and returns
// them with the byte offset of the last fully written line — the length the
// resuming writer truncates to, so a torn tail (the process was killed
// mid-append) is physically discarded rather than appended after. Only
// newline-terminated lines count: a record missing its newline is torn by
// definition. A missing file is an empty checkpoint; a fingerprint mismatch
// is an error (the grid changed under the checkpoint).
func loadCheckpoint(path string, g Grid) (map[CellRef]CellResult, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	return parseCheckpoint(data, path, g)
}

// parseCheckpoint is loadCheckpoint on the file's bytes; path only names the
// file in errors.
func parseCheckpoint(data []byte, path string, g Grid) (map[CellRef]CellResult, int64, error) {
	off := 0
	nextLine := func() ([]byte, bool) {
		i := bytes.IndexByte(data[off:], '\n')
		if i < 0 {
			return nil, false
		}
		line := data[off : off+i]
		off += i + 1
		return line, true
	}
	line, ok := nextLine()
	if !ok {
		return nil, 0, nil // no complete header: treat as fresh
	}
	var hdr ckHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Schema != ckSchema {
		return nil, 0, fmt.Errorf("sweep: %s is not a sweep checkpoint", path)
	}
	if want := gridFingerprint(g); hdr.Fingerprint != want {
		return nil, 0, fmt.Errorf("sweep: checkpoint %s was written by a different grid (fingerprint %s, want %s)",
			path, hdr.Fingerprint, want)
	}
	done := map[CellRef]CellResult{}
	valid := int64(off)
	for {
		line, ok := nextLine()
		if !ok {
			break
		}
		var cr CellResult
		if json.Unmarshal(line, &cr) != nil {
			break // torn or corrupt line: drop it and everything after
		}
		done[cr.CellRef] = cr
		valid = int64(off)
	}
	return done, valid, nil
}

// ckWriter appends completed cells to the checkpoint, one line per cell,
// serialized by a mutex so concurrent workers never interleave lines.
type ckWriter struct {
	mu sync.Mutex
	f  *os.File
}

// newCkWriter opens the checkpoint for appending. A fresh run truncates the
// whole file; a resume truncates to validSize (the offset loadCheckpoint
// vouched for), discarding any torn tail. An empty file gets the header.
func newCkWriter(path string, g Grid, resume bool, validSize int64) (*ckWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if !resume {
		validSize = 0
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, err
	}
	if validSize == 0 {
		hdr, _ := json.Marshal(ckHeader{Schema: ckSchema, Fingerprint: gridFingerprint(g)})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &ckWriter{f: f}, nil
}

func (w *ckWriter) append(cr CellResult) error {
	b, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(append(b, '\n'))
	return err
}

func (w *ckWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

func (w *ckWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

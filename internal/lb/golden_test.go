package lb

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// The scheduler golden: a seeded trace of weight updates, removals, drain
// marks and picks in all three routing views, recorded from the mutex-serial
// smooth-WRR reference this balancer's scheduler was derived from. The
// balancer must reproduce it byte for byte: same float arithmetic, ties to
// the lowest id, one shared score per backend, and excluded backends do not
// advance their score.

const (
	goldenPath     = "testdata/wrr_trace.golden"
	goldenOps      = 12000
	goldenBackends = 16
)

// wrrOp is one trace step: 'w' set weight, 'r' remove, 'h'/'s' hard/soft
// drain mark, or a pick in view 'a' (all; vanilla), 'l' (live; anonymous)
// or 'o' (open; new sessions).
type wrrOp struct {
	kind byte
	id   int
	w    float64
}

// goldenTrace returns the seeded operation sequence.
func goldenTrace() []wrrOp {
	rng := rand.New(rand.NewSource(7))
	irrational := []float64{math.Pi, math.E, math.Sqrt2, math.Phi, math.Sqrt(3)}
	capacities := []float64{25, 50, 40}
	ops := make([]wrrOp, 0, goldenOps)
	for len(ops) < goldenOps {
		op := wrrOp{id: rng.Intn(goldenBackends)}
		switch r := rng.Intn(100); {
		case r < 3:
			op.kind, op.w = 'w', float64(rng.Intn(6)) // integers, 0 included
		case r < 6:
			op.kind, op.w = 'w', capacities[rng.Intn(len(capacities))]
		case r < 9:
			op.kind, op.w = 'w', irrational[rng.Intn(len(irrational))]*float64(1+rng.Intn(3))
		case r < 11:
			op.kind = 'r'
		case r < 12:
			op.kind = 'h'
		case r < 14:
			op.kind = 's'
		default:
			op.kind = "alo"[r%3]
		}
		ops = append(ops, op)
	}
	return ops
}

// formatTrace applies a trace through apply, which returns each pick's
// outcome, and renders it one step a line.
func formatTrace(ops []wrrOp, apply func(wrrOp) (int, bool)) []byte {
	var buf bytes.Buffer
	for _, op := range ops {
		id, ok := apply(op)
		buf.WriteByte(op.kind)
		switch op.kind {
		case 'w':
			buf.WriteString(" " + strconv.Itoa(op.id) + " " + strconv.FormatFloat(op.w, 'g', -1, 64))
		case 'r', 'h', 's':
			buf.WriteString(" " + strconv.Itoa(op.id))
		default:
			if ok {
				buf.WriteString(" " + strconv.Itoa(id))
			} else {
				buf.WriteString(" -")
			}
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestWRRTraceGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBalancer()
	views := map[byte]routeView{'a': viewAll, 'l': viewLive, 'o': viewOpen}
	got := formatTrace(goldenTrace(), func(op wrrOp) (int, bool) {
		switch op.kind {
		case 'w':
			b.SetWeight(op.id, op.w)
		case 'r':
			b.Remove(op.id)
		case 'h', 's':
			setDrain(b, op.id, op.kind == 'h')
		default:
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.nextLocked(views[op.kind])
		}
		return 0, false
	})
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gl {
		if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s:%d: got %q, want %q", goldenPath, i+1, gl[i], wl[min(i, len(wl)-1)])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

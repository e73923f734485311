package sweep

import (
	"bytes"
	"encoding/json"
	"math/big"
	"reflect"
	"testing"
)

// FuzzGridJSON decodes arbitrary bytes as a grid file does (unknown fields
// rejected) and validates the result: nothing may panic, and a grid Validate
// accepts has an exact CellCount within the bound — the engine sizes its
// cell table by it.
func FuzzGridJSON(f *testing.F) {
	f.Add([]byte(`{"name":"g","scenarios":["storm","flap"],"seeds":3,"variants":[{"name":"default","config":{}}],"hours":12,"sub_steps":30}`))
	f.Add([]byte(`{"scenarios":["storm"],"seeds":4611686018427387904,"variants":[{"name":"default","config":{}}]}`))
	f.Add([]byte(`{"scenarios":["storm","flap","price-spike","combined"],"seeds":4611686018427387904,"variants":[{"name":"default","config":{}}]}`))
	f.Add([]byte(`{"scenarios":["a","a"],"seeds":1,"variants":[{"name":"v"}],"hours":-1}`))
	f.Add([]byte(`{"scenarios":["s"],"seeds":2,"variants":[{"name":"v","config":{"risk":true}}],"parallelism":4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grid
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&g) != nil || g.Validate() != nil {
			return
		}
		exact := big.NewInt(int64(len(g.Scenarios)))
		exact.Mul(exact, big.NewInt(int64(g.Seeds)))
		exact.Mul(exact, big.NewInt(int64(len(g.Variants))))
		if !exact.IsInt64() || exact.Int64() != int64(g.CellCount()) || g.CellCount() > maxCells {
			t.Fatalf("valid grid %d×%d×%d: CellCount %d, exact %v, bound %d",
				len(g.Scenarios), g.Seeds, len(g.Variants), g.CellCount(), exact, maxCells)
		}
	})
}

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint reader a resume
// runs: it never panics, the offset it vouches for is within the data and at
// a line start (0 or just past a '\n'), and every cell it returns decodes
// from a complete line before that offset.
func FuzzCheckpoint(f *testing.F) {
	g := testGrid()
	hdr, _ := json.Marshal(ckHeader{Schema: ckSchema, Fingerprint: gridFingerprint(g)})
	cell := func(scen string, seed int, score float64) []byte {
		b, _ := json.Marshal(CellResult{CellRef: CellRef{Scenario: scen, SeedIdx: seed, Variant: "default"}, Score: score})
		return b
	}
	lines := func(parts ...[]byte) []byte { return bytes.Join(parts, []byte("\n")) }
	f.Add(lines(hdr, cell("storm", 0, 0.5), cell("flap", 1, 0.25), nil))
	f.Add(lines(hdr, cell("storm", 0, 0.5), cell("flap", 1, 0.25)[:20]))  // torn tail
	f.Add(lines(hdr, []byte(`{"scenario":`), cell("flap", 1, 0.25), nil)) // corrupt line mid-file
	f.Add(lines([]byte(`{"schema":"spotweb-sweep-ckpt/v1","fingerprint":"0000000000000000"}`), cell("storm", 0, 1), nil))
	f.Add([]byte("not a checkpoint\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		done, off, err := parseCheckpoint(data, "fuzz.jsonl", g)
		if off < 0 || off > int64(len(data)) || (off > 0 && data[off-1] != '\n') {
			t.Fatalf("offset %d of %d bytes is not a line start", off, len(data))
		}
		if err != nil {
			if done != nil || off != 0 {
				t.Fatalf("error %v with %d cells and offset %d", err, len(done), off)
			}
			return
		}
		var complete []CellResult
		for _, line := range bytes.Split(data[:off], []byte("\n")) {
			var cr CellResult
			if json.Unmarshal(line, &cr) == nil {
				complete = append(complete, cr)
			}
		}
		for ref, cr := range done {
			if cr.CellRef != ref {
				t.Fatalf("cell %+v filed under %+v", cr.CellRef, ref)
			}
			found := false
			for _, c := range complete {
				if reflect.DeepEqual(c, cr) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cell %+v does not decode from a complete line before offset %d", ref, off)
			}
		}
	})
}

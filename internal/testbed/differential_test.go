package testbed

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/microsim"
)

// TestDifferentialJournalLaw plays one §6.1-shaped script through the
// microsim (virtual clock, seconds) and through the testbed (wall clock,
// milliseconds): six servers, a correlated revocation of the four larger ones
// under three times the survivors' capacity, replacements booting well inside
// the warning. Both drive one control plane, so both must journal the same
// lifecycle, kind by kind, and decide the same actions. The journals are
// compared twice: once every replacement is up, while the victims still
// drain, and once the fleet is quiet. The first comparison is what sees the
// victims' sessions move when their replacements boot: by the end their
// drains would have moved them anyway, at the same count.
func TestDifferentialJournalLaw(t *testing.T) {
	caps := []float64{10, 10, 20, 20, 16, 16}
	victims := []int{2, 3, 4, 5}
	const (
		offered  = 60.0 // three times the survivors' 20
		boot     = 20   // seconds in the microsim, milliseconds on the testbed
		warning  = 400
		revokeAt = 50
		sessions = 200
	)

	des := func(duration float64) *microsim.Result {
		res, err := microsim.Run(microsim.Config{
			Seed: 3, Duration: duration, Rate: offered, Sessions: sessions, Servers: caps,
			Revocations: []microsim.Revocation{{At: revokeAt, Servers: victims}},
			StartDelay:  boot, Warning: warning,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	desMid := des(revokeAt + (boot+warning)/2)
	desEnd := des(revokeAt + boot + warning + 100)

	j := metrics.NewJournal(1024)
	c := NewCluster(ClusterConfig{
		Backend: BackendConfig{BaseServiceTime: time.Millisecond, StartDelay: boot * time.Millisecond},
		Warning: warning * time.Millisecond,
		Journal: j,
	})
	defer c.Close()
	// waitFor polls under the cluster's lock, so it never reads the journal
	// halfway through a transition's records.
	waitFor := func(what string, done func() bool) {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			ok := done()
			c.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("testbed: timed out waiting for %s; journal %v", what, j.Counts())
			}
		}
	}
	for _, cp := range caps {
		c.AddBackend(cp)
	}
	waitFor("the fleet to boot", func() bool { return j.Counts()[metrics.EvBackendUp] == int64(len(caps)) })
	for i := 0; i < sessions; i++ {
		c.balancer.Route("s" + metrics.Itoa(i))
	}
	c.RevokeWithWarning(victims, offered, warning*time.Millisecond)
	var bedMid, bedEnd map[string]int64
	waitFor("the replacements", func() bool {
		bedMid = j.Counts()
		return bedMid[metrics.EvReplacementUp] == int64(len(victims))
	})
	waitFor("the victims to terminate", func() bool {
		bedEnd = j.Counts()
		return math.IsInf(c.fleet.Next(), 1)
	})

	if !reflect.DeepEqual(desMid.Journal, bedMid) {
		t.Errorf("replacements up: microsim journals %v, testbed %v", desMid.Journal, bedMid)
	}
	if !reflect.DeepEqual(desEnd.Journal, bedEnd) {
		t.Errorf("quiet: microsim journals %v, testbed %v", desEnd.Journal, bedEnd)
	}
	var bedActions, desActions []string
	for _, ev := range j.Events() {
		if ev.Type == metrics.EvDrainStart {
			bedActions = append(bedActions, ev.Detail)
		}
	}
	for _, a := range desEnd.Actions {
		desActions = append(desActions, a.String())
	}
	if !reflect.DeepEqual(desActions, bedActions) {
		t.Errorf("actions: microsim %v, testbed %v", desActions, bedActions)
	}
	// The law is only as good as the script: every victim reprovisioned and
	// its sessions moved while it still drained.
	n := int64(len(victims))
	if mid, end := desMid.Journal, desEnd.Journal; mid[metrics.EvReplacementUp] != n ||
		mid[metrics.EvSessionsMigrated] != n || mid[metrics.EvDrainComplete] != 0 || end[metrics.EvDrainComplete] != n {
		t.Errorf("script: microsim journals %v mid-run and %v at the end; want %d replacements up and "+
			"%d migrations mid-run, %d drains completed only at the end", mid, end, n, n, n)
	}
}

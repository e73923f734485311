package runner

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/runcfg"
)

// TestSentinelAnchorImprovesRecovery is the acceptance check for the HA
// anchor tier: on the built-in storm suite at the default seed, running with
// the sentinel standby pool and an on-demand anchor floor must strictly
// reduce the worst seconds-to-recovery compared to the cold-recreate
// baseline, and the report must carry the configuration that produced it.
func TestSentinelAnchorImprovesRecovery(t *testing.T) {
	sc, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunSim(sc, runcfg.RunConfig{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	ha, err := RunSim(sc, runcfg.RunConfig{Seed: 42, Quick: true,
		Sentinel: true, AnchorMin: 0.3})
	if err != nil {
		t.Fatal(err)
	}

	if cold.RecoverySecs <= 0 {
		t.Fatalf("cold baseline recovery = %v s, want a finite dip to improve on", cold.RecoverySecs)
	}
	if ha.RecoverySecs < 0 {
		t.Fatalf("HA run never recovered (recovery %v s)", ha.RecoverySecs)
	}
	if ha.RecoverySecs >= cold.RecoverySecs {
		t.Fatalf("sentinel+anchor recovery %v s must strictly beat cold %v s",
			ha.RecoverySecs, cold.RecoverySecs)
	}
	if ha.Restarts == 0 {
		t.Fatal("HA run performed no warm restarts")
	}
	if cold.Restarts != 0 {
		t.Fatalf("cold baseline performed %d warm restarts", cold.Restarts)
	}

	// Reports must be self-describing about the HA configuration.
	if ha.AnchorMin != 0.3 || !ha.Sentinel {
		t.Fatalf("report knobs = (anchor %v, sentinel %v), want (0.3, true)",
			ha.AnchorMin, ha.Sentinel)
	}
	if cold.AnchorMin != 0 || cold.Sentinel {
		t.Fatal("cold report must not claim HA knobs")
	}
	if cold.RecoveryTargetPct != ha.RecoveryTargetPct || cold.RecoveryTargetPct <= 0 {
		t.Fatalf("recovery target missing: cold %v, ha %v",
			cold.RecoveryTargetPct, ha.RecoveryTargetPct)
	}
	if len(cold.AttainmentSeries) == 0 || len(ha.AttainmentSeries) == 0 {
		t.Fatal("reports must carry the per-interval attainment series")
	}
}

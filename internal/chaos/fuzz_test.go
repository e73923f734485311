package chaos

import (
	"encoding/json"
	"testing"
)

// FuzzScenarioJSON feeds arbitrary bytes through the path a -chaos-scenario
// file takes: decode, Validate, Compile. Each step must return an error or a
// timeline, never panic or hang.
func FuzzScenarioJSON(f *testing.F) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		if json.Unmarshal(data, &sc) != nil || sc.Validate() != nil {
			return
		}
		in, err := Compile(&sc, 1, 6)
		if err != nil {
			return
		}
		in.Revocations(0, 1)
		in.CapacityFactor(0.5)
	})
}

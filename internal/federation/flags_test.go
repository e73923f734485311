package federation

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestFlagsPlannerConfig: the flag group is the one place -parallelism lives;
// it sizes the shard pool and nothing else, and defaults to serial.
func TestFlagsPlannerConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want PlannerConfig
	}{
		{name: "default is serial", want: PlannerConfig{}},
		{name: "overrides", args: []string{"-parallelism", "3", "-fed-rounds", "2"}, want: PlannerConfig{CoordRounds: 2, Parallelism: 3}},
		{name: "all cores", args: []string{"-federation", "-parallelism", "-1"}, want: PlannerConfig{Parallelism: -1}},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := BindFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := f.PlannerConfig(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: PlannerConfig() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

package federation

import (
	"flag"
	"io"
	"reflect"
	"strings"
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

// TestFlagsValidate: values Build and PlannerConfig used to replace with their
// defaults in silence — -regions -3 planned 8 regions, -fed-types -4 six
// types, -fed-azs -1 one AZ, -fed-providers "" the default providers — are
// refused, naming the flag; the defaults and trimmed lists pass.
func TestFlagsValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = valid
	}{
		{args: nil},
		{args: []string{"-federation", "-regions", "2", "-fed-azs", "3", "-fed-types", "1", "-fed-rounds", "0", "-fed-providers", " aws , ,azure"}},
		{args: []string{"-regions", "-3"}, want: "-regions -3"},
		{args: []string{"-regions", "0"}, want: "-regions 0"},
		{args: []string{"-fed-azs", "-1"}, want: "-fed-azs -1"},
		{args: []string{"-fed-types", "-4"}, want: "-fed-types -4"},
		{args: []string{"-fed-rounds", "-1"}, want: "-fed-rounds -1"},
		{args: []string{"-fed-providers", ""}, want: `-fed-providers ""`},
		{args: []string{"-fed-providers", " , "}, want: `-fed-providers " , "`},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := BindFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := f.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: Validate() = %v, want nil", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: Validate() = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

// Command spotweb-sim regenerates the paper's tables and figures. Each
// experiment id maps to one table/figure of the evaluation (§6); see
// DESIGN.md for the index.
//
// Usage:
//
//	spotweb-sim -exp fig6b [-quick] [-seed 42] [-workload wiki|vod]
//	spotweb-sim -exp all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/runcfg"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// simFlags is the parsed command line.
type simFlags struct {
	exp, workload, fedOut string
	expSet                bool // -exp was passed explicitly
	rc                    *runcfg.Flags
	fed                   *federation.Flags
}

func parseFlags(fs *flag.FlagSet, args []string) (*simFlags, error) {
	f := &simFlags{}
	fs.StringVar(&f.exp, "exp", "all", "experiment id: table1, fig3, fig4a, fig4cd, fig5, fig6a, fig6b, tv4, fig7a, fig7b, padding, all")
	fs.StringVar(&f.workload, "workload", "wiki", "workload for fig6b: wiki or vod")
	f.rc = runcfg.BindFlags(fs)
	f.fed = federation.BindFlags(fs)
	fs.StringVar(&f.fedOut, "fed-out", "", "write the federation scaling benchmark as JSON to this file (with -federation)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(fl *flag.Flag) { f.expSet = f.expSet || fl.Name == "exp" })
	return f, nil
}

// check rejects flag combinations that used to be silently ignored:
// -federation is its own experiment, so -exp beside it never ran, and
// -fed-out without it wrote nothing; federation flags that sized the scaling
// benchmark with a default instead (federation.Flags.Validate); and run
// options no run can mean (runcfg.RunConfig.Validate).
func (f *simFlags) check() error {
	switch {
	case f.fed.Enabled() && f.expSet:
		return fmt.Errorf("-federation runs the federation scaling benchmark; it cannot be combined with -exp %s", f.exp)
	case !f.fed.Enabled() && f.fedOut != "":
		return fmt.Errorf("-fed-out %s needs -federation", f.fedOut)
	}
	if err := f.fed.Validate(); err != nil {
		return err
	}
	return f.rc.Config().Validate()
}

// fedScale sizes the federation scaling benchmark from the flags.
func (f *simFlags) fedScale() experiments.FedScaleOptions {
	return experiments.FedScaleOptions{
		Regions: f.fed.Regions, AZs: f.fed.AZs, Types: f.fed.Types,
		Rounds: f.fed.Rounds, Parallelism: f.fed.Parallelism, OutFile: f.fedOut,
	}
}

func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("spotweb-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f, err := parseFlags(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // fs.Parse has reported it, with the usage
	}
	if err := f.check(); err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}
	opt := f.rc.Config()

	// -federation runs the federated-planner scaling benchmark directly (it
	// is its own experiment, sized by the federation flags, and the evidence
	// behind BENCH_fed.json).
	if f.fed.Enabled() {
		if err := experiments.FedScale(w, opt, f.fedScale()); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	runExp := func(id string) bool {
		switch id {
		case "table1":
			experiments.Table1(w)
		case "fig3a", "fig3b", "fig3":
			experiments.Fig3Traces(w, opt)
		case "fig4a":
			experiments.Fig4a(w, opt)
		case "fig4a-sim":
			experiments.Fig4aSim(w, opt)
		case "fig4c", "fig4d", "fig4cd", "padding":
			experiments.Fig4cd(w, opt)
		case "fig5", "fig5a", "fig5b", "fig5c", "fig5d":
			experiments.Fig5(w, opt)
		case "fig6a":
			experiments.Fig6a(w, opt)
		case "fig6b":
			experiments.Fig6b(w, opt, f.workload)
		case "tv4":
			experiments.Fig6b(w, opt, "vod")
		case "fig7a":
			experiments.Fig7a(w, opt)
		case "fig7b":
			experiments.Fig7b(w, opt)
		case "ablation-churn":
			experiments.AblationChurn(w, opt)
		case "ablation-padding":
			experiments.AblationPadding(w, opt)
		case "startup":
			experiments.DiscussionStartupDelay(w, opt)
		case "google":
			experiments.DiscussionGoogleCloud(w, opt)
		case "predictors":
			experiments.PredictorComparison(w, opt)
		case "ablation-longreq":
			experiments.AblationLongRequests(w, opt)
		default:
			return false
		}
		return true
	}

	if f.exp == "all" {
		for _, id := range []string{"table1", "fig3", "fig4a", "fig4a-sim", "fig4cd", "fig5",
			"fig6a", "fig6b", "tv4", "fig7a", "fig7b",
			"ablation-churn", "ablation-padding", "ablation-longreq", "startup", "google", "predictors"} {
			fmt.Fprintf(w, "\n===== %s =====\n", id)
			runExp(id)
		}
		return 0
	}
	if !runExp(f.exp) {
		fmt.Fprintf(stderr, "unknown experiment %q\n", f.exp)
		fs.Usage()
		return 2
	}
	return 0
}

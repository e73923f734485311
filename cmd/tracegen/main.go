// Command tracegen emits the synthetic traces used by the experiments as
// CSV: the Wikipedia-like and VoD-like request workloads, and per-market
// spot price / revocation probability series for a synthetic catalog.
//
// Usage:
//
//	tracegen -kind workload -out traces.csv [-days 21] [-seed 42]
//	tracegen -kind market -markets 9 -hours 336 -out markets.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/market"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// genFlags is the parsed command line.
type genFlags struct {
	kind, out            string
	days, hours, markets int
	seed                 int64
}

func parseFlags(fs *flag.FlagSet, args []string) (*genFlags, error) {
	f := &genFlags{}
	fs.StringVar(&f.kind, "kind", "workload", "workload | market")
	fs.StringVar(&f.out, "out", "-", "output file (- for stdout)")
	fs.IntVar(&f.days, "days", 21, "trace length in days (workload)")
	fs.IntVar(&f.hours, "hours", 336, "trace length in hours (market)")
	fs.IntVar(&f.markets, "markets", 9, "number of market types (market)")
	fs.Int64Var(&f.seed, "seed", 42, "random seed")
	return f, fs.Parse(args)
}

// check rejects the inputs that used to truncate the output file before
// failing (an unknown -kind), panic after creating it (-days below 1), or
// silently emit the generator's defaults (-hours, -markets below 1).
func (f *genFlags) check() error {
	switch {
	case f.kind != "workload" && f.kind != "market":
		return fmt.Errorf("unknown -kind %q: want workload or market", f.kind)
	case f.days < 1:
		return fmt.Errorf("-days %d: want at least 1", f.days)
	case f.hours < 1:
		return fmt.Errorf("-hours %d: want at least 1", f.hours)
	case f.markets < 1:
		return fmt.Errorf("-markets %d: want at least 1", f.markets)
	}
	return nil
}

// series generates the traces the flags ask for.
func (f *genFlags) series() []*trace.Series {
	if f.kind == "workload" {
		wiki := trace.WikipediaLike(f.seed)
		wiki.Days = f.days
		vod := trace.VoDLike(f.seed + 1)
		vod.Days = f.days
		ws := wiki.Generate()
		ws.Name = "wikipedia_like"
		vs := vod.Generate()
		vs.Name = "vod_like"
		return []*trace.Series{ws, vs}
	}
	cat := market.CatalogConfig{Seed: f.seed, NumTypes: f.markets, Hours: f.hours}.Generate()
	var series []*trace.Series
	for _, m := range cat.Markets {
		p := m.Price.Clone()
		p.Name = m.ID() + "_price"
		fp := m.FailProb.Clone()
		fp.Name = m.ID() + "_failprob"
		series = append(series, p, fp)
	}
	return series
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f, err := parseFlags(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // fs.Parse has reported it, with the usage
	}
	if err := f.check(); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		fs.Usage()
		return 2
	}
	if err := writeCSV(f.out, stdout, f.series()); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}

// writeCSV writes the series to path, or to stdout for "-". The file is
// created only once the series exist, and a failed Close is reported: it can
// be the first sign that buffered data never reached the disk.
func writeCSV(path string, stdout io.Writer, series []*trace.Series) (err error) {
	if path == "-" {
		return trace.WriteCSV(stdout, series...)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	return trace.WriteCSV(out, series...)
}

// Package cli holds what lrpsim, lrptrace and lrpcheck share: exit
// codes, the machine a run's flags describe, the kv -mix parser, and the
// rule that a flag the chosen mode does not read is an error.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"lrp"
)

// ErrUsage exits 2 and ErrFailed exits 1, both without a message: the
// usage, or the verdict, is already printed.
var ErrUsage, ErrFailed = errors.New("usage"), errors.New("failed")

// Main runs a command on the process's arguments and exits with its
// status: 0, 2 on ErrUsage, or 1, printing any other error after name.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); err {
	case nil:
		return
	case ErrUsage:
		os.Exit(2)
	case ErrFailed:
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(1)
}

// Reads fails if a flag set on fs's command line is not one of the flags
// mode reads, naming the first such flag and the mode.
func Reads(fs *flag.FlagSet, mode string, flags ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(flags, f.Name) {
			err = fmt.Errorf("-%s is not read by %s", f.Name, mode)
		}
	})
	return err
}

// Config is the machine a run's flags describe: mechanism mech on
// max(threads, floor) cores, or on cores if set, which must be at least
// threads; uncached disables the NVM-side DRAM cache.
func Config(mech string, threads, cores, floor int, uncached bool) (lrp.Config, error) {
	k, err := lrp.ParseMechanism(mech)
	if err != nil {
		return lrp.Config{}, err
	}
	cfg := lrp.DefaultConfig().WithMechanism(k)
	cfg.Cores = max(threads, floor)
	if cores > 0 {
		if cores < threads {
			return cfg, fmt.Errorf("-cores %d is fewer than -threads %d", cores, threads)
		}
		cfg.Cores = cores
	}
	if uncached {
		cfg.NVM.Mode = 1
	}
	return cfg, nil
}

// SetMix sets p's op mix from s: get, set, del, cas and scan percentages,
// comma-separated.
func SetMix(p *lrp.KVParams, s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 5 {
		return fmt.Errorf("want 5 comma-separated percentages, got %q", s)
	}
	for i, dst := range []*int{&p.GetPct, &p.SetPct, &p.DelPct, &p.CASPct, &p.ScanPct} {
		v, err := strconv.Atoi(strings.TrimSpace(parts[i]))
		if err != nil {
			return err
		}
		*dst = v
	}
	return nil
}

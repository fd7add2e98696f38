package main

import (
	"flag"
	"io"
	"slices"
	"testing"
)

// TestFlagSet pins phmsed's command line: a knob comes back, or a new one
// appears, only through an edit of this list.
func TestFlagSet(t *testing.T) {
	want := []string{"addr", "admin-token", "drain-timeout", "instance", "max-procs",
		"plan-cache", "posterior-dir", "posterior-mb", "pprof-addr", "queue"}
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestFlagsRefused: retired flags, a stray argument and out-of-range
// values are errors (exit 2).
func TestFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-min-team", "1"}, {"-max-team", "4"}, {"-max-retries", "2"}, {"-transfer-inflight", "1"}, {"stray"}, {"-queue", "0"},
		{"-max-procs", "-1"}, {"-drain-timeout", "0"}, {"-instance", "a.b"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestFlagsSelectConfig: 0 on the disabling flags maps to Config's
// negative "disabled", and the cluster benchmark's shard line parses.
func TestFlagsSelectConfig(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-instance", "s1", "-max-procs", "1", "-queue", "64",
		"-admin-token", "tok", "-plan-cache", "0", "-posterior-mb", "0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if c.InstanceID != "s1" || c.MaxProcs != 1 || c.QueueDepth != 64 || c.AdminToken != "tok" ||
		c.CacheSize != -1 || c.PosteriorBytes != -1 {
		t.Fatalf("config = %+v", c)
	}
	if o, err = parseFlags(nil, io.Discard); err != nil || o.cfg.CacheSize != 64 || o.cfg.PosteriorBytes != 256<<20 {
		t.Fatalf("defaults: %v, %+v", err, o.cfg)
	}
}

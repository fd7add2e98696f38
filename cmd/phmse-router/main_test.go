package main

import (
	"flag"
	"io"
	"slices"
	"testing"
	"time"
)

// TestFlagSet pins phmse-router's command line: a knob comes back, or a
// new one appears, only through an edit of this list.
func TestFlagSet(t *testing.T) {
	want := []string{"addr", "admin-token", "audit-log", "gossip-interval", "peers", "pprof-addr",
		"probe-interval", "repair-interval", "replica-id", "shard-inflight", "shards"}
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestFlagsRefused: retired flags, a stray argument and the values the
// help text does not allow are errors (exit 2), never silent defaults.
func TestFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-probe-timeout", "1s"}, {"-migrate-timeout", "1s"}, {"-drain-deadline", "1s"}, {"-lease-ttl", "1s"},
		{"-breaker-failures", "1"}, {"-breaker-cooldown", "1s"}, {"-breaker-flap-count", "1"}, {"-breaker-flap-window", "1s"},
		{"stray"}, {"-probe-interval", "0"}, {"-probe-interval", "-1s"},
		{"-repair-interval", "0"}, {"-gossip-interval", "0"}, {"-shard-inflight", "-1"},
	} {
		if _, err := parseFlags(append([]string{"-shards", "http://s1"}, args...), io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := parseFlags(nil, io.Discard); err == nil {
		t.Error("no -shards accepted")
	}
}

// TestFlagsSelectConfig parses the command line the cluster benchmark
// gives its second router and checks the Config it selects.
func TestFlagsSelectConfig(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-shards", " http://s1, http://s2 ,",
		"-admin-token", "tok", "-probe-interval", "200ms", "-repair-interval", "-1s", "-replica-id", "r2",
		"-peers", "http://r1/", "-gossip-interval", "200ms"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if o.addr != "127.0.0.1:0" || !slices.Equal(c.Shards, []string{"http://s1", "http://s2"}) ||
		!slices.Equal(c.Peers, []string{"http://r1"}) || c.AdminToken != "tok" || c.ReplicaID != "r2" ||
		c.ProbeInterval != 200*time.Millisecond || c.RepairInterval != -time.Second ||
		c.GossipInterval != 200*time.Millisecond || c.ShardInflight != 0 {
		t.Fatalf("options = %+v", o)
	}
}

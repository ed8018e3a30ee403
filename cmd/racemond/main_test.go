package main

import (
	"strings"
	"testing"
	"time"

	"localdrf/internal/schedgen"
)

// TestParseConfig pins racemond's flag rules: each command line yields
// either the config fields it must set or the error it must fail with
// (racemond exits 2).
func TestParseConfig(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		check  func(config) bool // nil: no field expectations
		errHas string
	}{
		{name: "serve defaults", args: nil, check: func(c config) bool {
			s := c.serve
			return c.drive.n == 0 && c.addr == "127.0.0.1:7341" && s.CheckpointEvery == 100_000 &&
				s.CheckpointRing == 3 && s.MaxSessions == 64 && s.Shards == 1 &&
				s.ReadTimeout == 10*time.Second && s.IdleTimeout == 5*time.Minute && s.RetryAfter == time.Second
		}},
		{name: "serve flags", args: []string{"-addr", ":9", "-ckpt", "d", "-ckpt-every", "7", "-max-sessions", "2", "-read-timeout", "1s"},
			check: func(c config) bool {
				return c.addr == ":9" && c.serve.CheckpointDir == "d" && c.serve.CheckpointEvery == 7 &&
					c.serve.MaxSessions == 2 && c.serve.ReadTimeout == time.Second
			}},
		{name: "drive", args: []string{"-drive", "8", "-events", "1000", "-policy", "fair", "-golden", "g", "-json"},
			check: func(c config) bool {
				d := c.drive
				return d.n == 8 && d.events == 1000 && d.policy == schedgen.Fair && d.golden == "g" && d.asJSON
			}},
		{name: "drive update golden", args: []string{"-drive", "1", "-golden", "g", "-update-golden"},
			check: func(c config) bool { return c.drive.update }},
		{name: "zero ckpt-every", args: []string{"-ckpt-every", "0"}, errHas: "-ckpt-every"},
		{name: "zero ckpt-ring", args: []string{"-ckpt-ring", "0"}, errHas: "-ckpt-ring"},
		{name: "negative max-sessions", args: []string{"-max-sessions", "-1"}, errHas: "-max-sessions must be ≥ 1"},
		{name: "zero max-sessions", args: []string{"-max-sessions", "0"}, errHas: "-max-sessions must be ≥ 1"},
		{name: "zero shards", args: []string{"-shards", "0"}, errHas: "-shards must be ≥ 1"},
		{name: "negative read-timeout", args: []string{"-read-timeout", "-1s"}, errHas: "-read-timeout"},
		{name: "zero read-timeout", args: []string{"-read-timeout", "0"}, errHas: "-read-timeout"},
		{name: "zero idle-timeout", args: []string{"-idle-timeout", "0"}, errHas: "-idle-timeout"},
		{name: "negative retry-after", args: []string{"-retry-after", "-5ms"}, errHas: "-retry-after"},
		{name: "negative drive", args: []string{"-drive", "-1"}, errHas: "-drive must be ≥ 0"},
		{name: "zero events", args: []string{"-drive", "1", "-events", "0"}, errHas: "-events"},
		{name: "negative ra", args: []string{"-drive", "1", "-ra", "-1"}, errHas: "-ra ≥ 0"},
		{name: "stale range", args: []string{"-drive", "1", "-stale", "101"}, errHas: "-stale"},
		{name: "zero attempts", args: []string{"-drive", "1", "-attempts", "0"}, errHas: "-attempts"},
		{name: "zero backoff", args: []string{"-drive", "1", "-backoff", "0"}, errHas: "-backoff"},
		{name: "bad policy", args: []string{"-drive", "1", "-policy", "lifo"}, errHas: "unknown policy"},
		{name: "update-golden needs golden", args: []string{"-drive", "1", "-update-golden"}, errHas: "needs -golden"},
		{name: "golden needs drive", args: []string{"-golden", "g"}, errHas: "-golden compares drive results"},
		{name: "json needs drive", args: []string{"-json"}, errHas: "-json prints drive results"},
		{name: "unknown flag", args: []string{"-wire", "1"}, errHas: "-wire"},
	}
	for _, tc := range cases {
		c, err := parseConfig(tc.args)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if tc.check != nil && !tc.check(c) {
			t.Errorf("%s: config %+v", tc.name, c)
		}
	}
}

package main

import "testing"

func TestParseMeta(t *testing.T) {
	for _, c := range []struct {
		line, cmd, arg string
		isMeta, bad    bool
	}{
		{line: "SELECT 1;"},
		{line: "  FROM t WHERE x > 0"},
		{line: `\quit`, cmd: "quit", isMeta: true},
		{line: ".tables", cmd: "tables", isMeta: true},
		{line: `  \trace on `, cmd: "trace on", isMeta: true},
		{line: `.trace off`, cmd: "trace off", isMeta: true},
		{line: `\analyze SELECT up(a) FROM t;`, cmd: "analyze", arg: "SELECT up(a) FROM t;", isMeta: true},
		{line: `.native   SELECT 1`, cmd: "native", arg: "SELECT 1", isMeta: true},
		{line: `\trace banana`, isMeta: true, bad: true},
		{line: `\trace`, isMeta: true, bad: true},
		{line: `\tables extra`, isMeta: true, bad: true},
		{line: `\explain`, isMeta: true, bad: true},
		{line: `\end`, isMeta: true, bad: true},
		{line: `.frobnicate`, isMeta: true, bad: true},
		{line: `\`, isMeta: true, bad: true},
	} {
		cmd, arg, isMeta, err := parseMeta(c.line)
		if cmd != c.cmd || arg != c.arg || isMeta != c.isMeta || (err != nil) != c.bad {
			t.Errorf("parseMeta(%q) = %q, %q, %v, %v; want %q, %q, %v, bad=%v",
				c.line, cmd, arg, isMeta, err, c.cmd, c.arg, c.isMeta, c.bad)
		}
	}
}

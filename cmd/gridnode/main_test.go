package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsSizesBelowOne: a cluster, app or critical-section count below
// 1 exits 2 with one line naming the flag, before the deployment (and any
// of its sockets) is built, so nothing reaches stdout. gridmutex.Config
// would read a zero as its default and run 3 clusters of 4 apps instead.
func TestRejectsSizesBelowOne(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-clusters", "0"}, "gridnode: -clusters 0: want at least 1\n"},
		{[]string{"-clusters", "-2"}, "gridnode: -clusters -2: want at least 1\n"},
		{[]string{"-apps", "0"}, "gridnode: -apps 0: want at least 1\n"},
		{[]string{"-apps", "-1", "-clusters", "2"}, "gridnode: -apps -1: want at least 1\n"},
		{[]string{"-cs", "0"}, "gridnode: -cs 0: want at least 1\n"},
		{[]string{"-cs", "-1"}, "gridnode: -cs -1: want at least 1\n"},
		{[]string{"-clusters", "0", "-cs", "-1"}, "gridnode: -clusters 0: want at least 1\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := gridnode(c.args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || stderr.String() != c.want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String(), c.want)
		}
	}
}

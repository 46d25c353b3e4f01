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

// TestRejectsNonPositiveTimeoutAndNegativeHold: a -timeout of 0 or less
// and a negative -hold exit 2 with one line naming the flag, before any
// socket opens. A zero timeout used to bind every socket and then fail
// each app's first Lock with "context deadline exceeded"; -hold -5 ran as
// -hold 0.
func TestRejectsNonPositiveTimeoutAndNegativeHold(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-timeout", "0"}, "gridnode: -timeout 0s: want more than 0\n"},
		{[]string{"-timeout", "-1s"}, "gridnode: -timeout -1s: want more than 0\n"},
		{[]string{"-clusters", "2", "-apps", "2", "-timeout", "0"}, "gridnode: -timeout 0s: want more than 0\n"},
		{[]string{"-hold", "-5"}, "gridnode: -hold -5: want at least 0\n"},
		{[]string{"-hold", "-1", "-timeout", "0"}, "gridnode: -hold -1: want at least 0\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := gridnode(c.args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || stderr.String() != c.want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String(), c.want)
		}
	}
}

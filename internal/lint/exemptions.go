package lint

import (
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// allowRe matches suppression comments: //lint:allow <names> <reason>.
// Names are comma-separated analyzer names; everything after them is the
// recorded justification.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z0-9_,-]+)[ \t]*(.*)$`)

// Exemption is one //lint:allow pragma found in source. It suppresses
// diagnostics of the named analyzers on its own line and the line
// directly below, so both trailing and preceding placement work.
type Exemption struct {
	// Pos locates the pragma comment.
	Pos token.Position
	// Analyzers are the names the pragma suppresses.
	Analyzers []string
	// Reason is the recorded justification (text after the names).
	Reason string
	// Used reports whether the pragma suppressed at least one diagnostic
	// in the run that collected it. A pragma that suppresses nothing is
	// stale: either the code it excused is gone, or it never matched —
	// both rot the invariant it punched a hole in.
	Used bool
}

// collectExemptions gathers every pragma of one package.
func collectExemptions(pkg *Package) []*Exemption {
	var out []*Exemption
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names := strings.Split(m[1], ",")
				for i := range names {
					names[i] = strings.TrimSpace(names[i])
				}
				out = append(out, &Exemption{
					Pos:       pkg.Fset.Position(c.Pos()),
					Analyzers: names,
					Reason:    strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// exemptionIndex answers "is this diagnostic suppressed?" and marks the
// matching pragma used.
type exemptionIndex struct {
	// byLine maps filename -> line -> pragmas whose scope covers it.
	byLine map[string]map[int][]*Exemption
}

func newExemptionIndex(exs []*Exemption) *exemptionIndex {
	idx := &exemptionIndex{byLine: make(map[string]map[int][]*Exemption)}
	for _, e := range exs {
		lines := idx.byLine[e.Pos.Filename]
		if lines == nil {
			lines = make(map[int][]*Exemption)
			idx.byLine[e.Pos.Filename] = lines
		}
		lines[e.Pos.Line] = append(lines[e.Pos.Line], e)
		lines[e.Pos.Line+1] = append(lines[e.Pos.Line+1], e)
	}
	return idx
}

// suppresses reports whether a pragma covers the diagnostic, marking the
// first matching pragma used.
func (idx *exemptionIndex) suppresses(d Diagnostic) bool {
	lines := idx.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, e := range lines[d.Pos.Line] {
		for _, name := range e.Analyzers {
			if name == d.Analyzer {
				e.Used = true
				return true
			}
		}
	}
	return false
}

// AuditName is the analyzer name exemption-audit diagnostics carry.
// Audit findings cannot themselves be suppressed with //lint:allow: a
// pragma excusing a stale pragma is exactly the rot the audit exists to
// stop.
const AuditName = "exemption-audit"

// auditExemptions cross-checks the pragmas of a finished run:
//
//   - a pragma that suppressed nothing is stale and must be deleted;
//   - a pragma naming an analyzer the suite does not contain is a typo
//     that silently suppresses nothing;
//   - a pragma without a reason is an escape hatch with no recorded
//     justification, which is how invariants rot.
//
// known is the set of analyzer names the run executed.
func auditExemptions(exs []*Exemption, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range exs {
		for _, name := range e.Analyzers {
			if !known[name] {
				out = append(out, Diagnostic{
					Analyzer: AuditName,
					Pos:      e.Pos,
					Message:  "//lint:allow names unknown analyzer " + name + "; it suppresses nothing",
				})
			}
		}
		if !e.Used {
			out = append(out, Diagnostic{
				Analyzer: AuditName,
				Pos:      e.Pos,
				Message:  "stale //lint:allow " + strings.Join(e.Analyzers, ",") + ": it no longer suppresses any diagnostic; delete it",
			})
		}
		if e.Reason == "" {
			out = append(out, Diagnostic{
				Analyzer: AuditName,
				Pos:      e.Pos,
				Message:  "//lint:allow " + strings.Join(e.Analyzers, ",") + " without a reason; record why the invariant does not apply here",
			})
		}
	}
	return out
}

// sortExemptions orders pragmas by position for stable output.
func sortExemptions(exs []*Exemption) {
	sort.Slice(exs, func(i, j int) bool {
		a, b := exs[i].Pos, exs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
}

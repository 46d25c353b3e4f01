// Package des (corpus) carries one pragma of every audit category: a
// live one (suppresses a real finding, has a reason), a stale one
// excusing code that no longer trips anything, one naming an analyzer
// that does not exist, and one with no recorded reason.
package des

// Spawn really does violate dettaint; the pragma is live and
// reasoned, so the audit stays quiet about it.
func Spawn(f func()) {
	//lint:allow dettaint corpus: deliberate violation kept to prove live pragmas pass the audit
	go f()
}

// Sum is order-independent, so the pragma below suppresses nothing.
func Sum(m map[int]int) int {
	total := 0
	//lint:allow dettaint left behind after the loop body was made order-independent
	for _, v := range m {
		total += v
	}
	return total
}

// Typo names an analyzer that is not in the suite.
func Typo(f func()) {
	//lint:allow determinism misspelled analyzer name that suppresses nothing
	go f()
}

// Quiet has a live pragma with no reason recorded.
func Quiet(f func()) {
	//lint:allow dettaint
	go f()
}

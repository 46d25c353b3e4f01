// Package algorithms is the registry of the mutual exclusion algorithms
// available to the composition layer, keyed by the short names used
// throughout the paper ("martin", "naimi", "suzuki") plus the extra
// plug-ins this repository adds ("raymond", "central", and the
// permission-based "ricart-agrawala").
package algorithms

import (
	"fmt"
	"sort"

	"gridmutex/internal/algorithms/central"
	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/raymond"
	"gridmutex/internal/algorithms/ricartagrawala"
	"gridmutex/internal/algorithms/ring"
	"gridmutex/internal/algorithms/suzukikasami"
	"gridmutex/internal/mutex"
)

// factories maps algorithm names to constructors. Aliases map the authors'
// names onto the same factories as the paper's shorthand.
var factories = map[string]mutex.Factory{
	"martin":          ring.New,
	"ring":            ring.New,
	"naimi":           naimitrehel.New,
	"naimi-trehel":    naimitrehel.New,
	"suzuki":          suzukikasami.New,
	"suzuki-kasami":   suzukikasami.New,
	"raymond":         raymond.New,
	"central":         central.New,
	"ricart-agrawala": ricartagrawala.New,
	"ra":              ricartagrawala.New,
}

// canonical lists one name per distinct algorithm, in a stable order.
var canonical = []string{"martin", "naimi", "suzuki", "raymond", "central", "ricart-agrawala"}

// permissionBased marks the algorithms with no circulating token.
var permissionBased = map[string]bool{
	"ricart-agrawala": true,
	"ra":              true,
}

// TokenBased reports whether the named algorithm circulates a token (as
// opposed to collecting permissions). Unknown names report true.
func TokenBased(name string) bool { return !permissionBased[name] }

// Names returns the canonical algorithm names, sorted.
func Names() []string {
	out := append([]string(nil), canonical...)
	sort.Strings(out)
	return out
}

// Factory returns the constructor registered under name.
func Factory(name string) (mutex.Factory, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("algorithms: unknown algorithm %q (have %v)", name, Names())
	}
	return f, nil
}

// New builds an instance of the named algorithm.
func New(name string, cfg mutex.Config) (mutex.Instance, error) {
	f, err := Factory(name)
	if err != nil {
		return nil, err
	}
	return f(cfg)
}

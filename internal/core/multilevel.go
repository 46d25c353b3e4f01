package core

import (
	"fmt"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// BuildMultiLevel assembles the generalized hierarchy the paper's
// conclusion sketches: level 0 runs algs[0] inside every cluster, level 1
// runs algs[1] among cluster coordinators grouped groupSizes[0] clusters to
// a region, level 2 runs algs[2] among region coordinators, and so on; the
// final algorithm spans the top-level coordinators. len(algs) must be
// len(groupSizes)+2; BuildMultiLevel with no group sizes is exactly the
// paper's two-level architecture.
//
// Every group's coordinator is a fresh logical process co-located on the
// physical node of its first child's coordinator (intermediate coordinators
// are pure bridges, so co-location only affects latency, which is what a
// real deployment would do too). The same bridge automaton runs at every
// boundary: a coordinator at level k is the initial holder of its group's
// level-k instance and a member of the enclosing level-(k+1) instance.
func BuildMultiLevel(net mutex.Fabric, grid *topology.Grid, algs []string, groupSizes []int, appCB CallbackFunc, coordOpts ...func(*Coordinator)) (*Deployment, error) {
	factories := make([]mutex.Factory, len(algs))
	for i, name := range algs {
		f, err := algorithms.Factory(name)
		if err != nil {
			return nil, fmt.Errorf("core: level %d: %w", i, err)
		}
		factories[i] = f
	}
	return BuildMultiLevelWith(net, grid, factories, groupSizes, appCB, coordOpts...)
}

// BuildMultiLevelWith is BuildMultiLevel with explicit factories instead of
// registry names — the hook that lets wrappers (such as the adaptive inter
// algorithm) slot into any hierarchy level.
// Each coordOpt is applied to every coordinator before it starts (e.g.
// (*Coordinator).SetLocalBias via a closure).
func BuildMultiLevelWith(net mutex.Fabric, grid *topology.Grid, factories []mutex.Factory, groupSizes []int, appCB CallbackFunc, coordOpts ...func(*Coordinator)) (*Deployment, error) {
	if len(factories) < 2 {
		return nil, fmt.Errorf("core: hierarchy needs at least 2 levels, got %d", len(factories))
	}
	if len(factories) != len(groupSizes)+2 {
		return nil, fmt.Errorf("core: %d levels need %d group sizes, got %d", len(factories), len(factories)-2, len(groupSizes))
	}
	for i, f := range factories {
		if f == nil {
			return nil, fmt.Errorf("core: nil factory at level %d", i)
		}
	}
	for i, gs := range groupSizes {
		if gs < 1 {
			return nil, fmt.Errorf("core: group size %d at level %d", gs, i+1)
		}
	}
	if grid.ClusterSize() < 2 {
		return nil, fmt.Errorf("core: clusters have %d nodes; need a coordinator plus at least one application process", grid.ClusterSize())
	}

	// The process count is known up front — every topology node plus one
	// fresh coordinator per intermediate group — so the Deployment can
	// carve all Process values out of a single arena slab.
	total := grid.NumNodes()
	for n, i := grid.NumClusters(), 0; i < len(groupSizes); i++ {
		n = (n + groupSizes[i] - 1) / groupSizes[i]
		total += n
	}
	// Every node but each cluster's first is an application process.
	d := &Deployment{Apps: make([]App, 0, grid.NumNodes()-grid.NumClusters())}
	d.Reserve(total)
	nextID := mutex.ID(grid.NumNodes()) // fresh IDs for intermediate coordinators

	// bridge describes one unit's coordinator: the process that holds
	// the unit's token initially and represents it one level up.
	type bridge struct {
		coord *Coordinator
		proc  *Process
		node  int // physical node, for co-locating parents
		intra mutex.Instance
		inter mutex.Instance
	}

	// Level 0: one unit per cluster, exactly as in the two-level build.
	var units, bridges []*bridge
	for c := 0; c < grid.NumClusters(); c++ {
		nodes := grid.NodesIn(c)
		members := make([]mutex.ID, len(nodes))
		for i, n := range nodes {
			members[i] = mutex.ID(n)
		}
		coordID := members[0]
		br := &bridge{coord: NewCoordinator(coordID), node: nodes[0]}
		for _, id := range members {
			proc := d.Register(net, id, int(id))
			var cbs mutex.Callbacks
			if id == coordID {
				cbs = br.coord.IntraCallbacks()
			} else if appCB != nil {
				cbs = appCB(id)
			}
			inst, err := factories[0](mutex.Config{
				Self: id, Members: members, Holder: coordID,
				Env: proc.Env(0), Callbacks: cbs,
			})
			if err != nil {
				return nil, fmt.Errorf("core: level 0 instance for %d: %w", id, err)
			}
			proc.Attach(0, inst)
			if id == coordID {
				br.proc = proc
				br.intra = inst
			} else {
				d.Apps = append(d.Apps, App{ID: id, Cluster: c, Instance: inst})
			}
		}
		units = append(units, br)
		bridges = append(bridges, br)
	}

	// Intermediate levels: group children, add a fresh bridge per group.
	for lvl := 1; lvl <= len(groupSizes); lvl++ {
		size := groupSizes[lvl-1]
		var parents []*bridge
		for start := 0; start < len(units); start += size {
			end := start + size
			if end > len(units) {
				end = len(units)
			}
			children := units[start:end]

			parentID := nextID
			nextID++
			proc := d.Register(net, parentID, children[0].node)
			parent := &bridge{coord: NewCoordinator(parentID), proc: proc, node: children[0].node}

			members := make([]mutex.ID, 0, len(children)+1)
			members = append(members, parentID)
			for _, ch := range children {
				members = append(members, ch.coord.ID())
			}
			// One instance endpoint per member: the parent uses its
			// intra callbacks, children their inter callbacks.
			for _, ch := range children {
				inst, err := factories[lvl](mutex.Config{
					Self: ch.coord.ID(), Members: members, Holder: parentID,
					Env: ch.proc.Env(Level(lvl)), Callbacks: ch.coord.InterCallbacks(),
				})
				if err != nil {
					return nil, fmt.Errorf("core: level %d instance for %d: %w", lvl, ch.coord.ID(), err)
				}
				ch.proc.Attach(Level(lvl), inst)
				ch.inter = inst
			}
			inst, err := factories[lvl](mutex.Config{
				Self: parentID, Members: members, Holder: parentID,
				Env: proc.Env(Level(lvl)), Callbacks: parent.coord.IntraCallbacks(),
			})
			if err != nil {
				return nil, fmt.Errorf("core: level %d instance for %d: %w", lvl, parentID, err)
			}
			proc.Attach(Level(lvl), inst)
			parent.intra = inst

			parents = append(parents, parent)
			bridges = append(bridges, parent)
		}
		units = parents
	}

	// Top level: one instance among the remaining bridges, no new
	// coordinator; the first bridge holds the top token initially.
	top := len(factories) - 1
	members := make([]mutex.ID, len(units))
	for i, u := range units {
		members[i] = u.coord.ID()
	}
	for _, u := range units {
		inst, err := factories[top](mutex.Config{
			Self: u.coord.ID(), Members: members, Holder: members[0],
			Env: u.proc.Env(Level(top)), Callbacks: u.coord.InterCallbacks(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: top level instance for %d: %w", u.coord.ID(), err)
		}
		u.proc.Attach(Level(top), inst)
		u.inter = inst
	}

	// Start every coordinator (each boots by acquiring its own unit's
	// token, which it holds initially, so ordering is immaterial). The
	// boot itself is posted to the coordinator's serial context: on live
	// fabrics a permission-based boot broadcasts, and another
	// coordinator's broadcast may already be in this process's mailbox.
	for _, b := range bridges {
		d.Coordinators = append(d.Coordinators, b.coord)
		for _, opt := range coordOpts {
			opt(b.coord)
		}
		b.proc.Local(func() { b.coord.Start(b.intra, b.inter) })
	}
	return d, nil
}

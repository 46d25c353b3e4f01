package livenet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/ring"
	"gridmutex/internal/core"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// udpHandles assembles a composed deployment over loopback UDP.
func udpHandles(t *testing.T, grid *topology.Grid, spec core.Spec) (*UDPNetwork, *Handles) {
	t.Helper()
	net := NewUDP("", 0)
	hs := NewHandles(net)
	d, err := core.BuildComposed(net, grid, spec, hs.Callbacks)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	hs.Bind(d.Apps)
	return net, hs
}

func TestUDPMutualExclusion(t *testing.T) {
	grid := topology.Uniform(2, 3, 0, 0)
	net, hs := udpHandles(t, grid, core.Spec{Intra: "naimi", Inter: "suzuki"})
	testUDPMutex(t, net, hs)
}

// TestUDPPermissionBasedComposition runs the permission-based algorithm at
// both levels over real sockets, exercising its wire encodings end to end.
func TestUDPPermissionBasedComposition(t *testing.T) {
	grid := topology.Uniform(2, 3, 0, 0)
	net, hs := udpHandles(t, grid, core.Spec{Intra: "ricart-agrawala", Inter: "ricart-agrawala"})
	testUDPMutex(t, net, hs)
}

func testUDPMutex(t *testing.T, net *UDPNetwork, hs *Handles) {
	defer net.Close()

	var counter, inCS int
	var wg sync.WaitGroup
	for _, id := range []mutex.ID{1, 2, 4, 5} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := hs.Get(id)
			for i := 0; i < 10; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := h.Lock(ctx); err != nil {
					cancel()
					t.Errorf("process %d: %v", id, err)
					return
				}
				cancel()
				if inCS != 0 {
					t.Errorf("overlapping critical sections")
				}
				inCS++
				counter++
				inCS--
				h.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 40 {
		t.Fatalf("counter = %d, want 40", counter)
	}
}

func TestUDPAddrAndRemote(t *testing.T) {
	net := NewUDP("", 0)
	defer net.Close()
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	addr := net.Addr(0)
	if addr == nil || addr.Port == 0 {
		t.Fatalf("Addr(0) = %v", addr)
	}
	if net.Addr(42) != nil {
		t.Fatal("unknown process has an address")
	}
	net.SetRemote(42, addr)
	if net.Addr(42) == nil {
		t.Fatal("SetRemote did not record the address")
	}
}

func TestUDPFixedPortScheme(t *testing.T) {
	const base = 39200
	net := NewUDP("", base)
	defer net.Close()
	net.RegisterAt(3, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	if got := net.Addr(3).Port; got != base+3 {
		t.Fatalf("port = %d, want %d", got, base+3)
	}
}

func TestUDPCorruptFrameIgnored(t *testing.T) {
	net := NewUDP("", 0)
	defer net.Close()
	delivered := make(chan mutex.Message, 1)
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.RegisterAt(1, 0, handlerFunc(func(from mutex.ID, m mutex.Message) { delivered <- m }))
	// Send garbage straight at the socket.
	p := net.procs[0]
	if _, err := p.conn.WriteToUDP([]byte{0, 0, 0, 0, 0xFF, 0xFF}, net.Addr(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.conn.WriteToUDP([]byte{1}, net.Addr(1)); err != nil { // runt
		t.Fatal(err)
	}
	// A valid message afterwards must still arrive.
	net.Endpoint(0).Send(1, ring.Token{})
	select {
	case m := <-delivered:
		if m.Kind() != "martin.token" {
			t.Fatalf("delivered %s", m.Kind())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("valid message lost after garbage")
	}
}

// TestUDPForgedFramesDropped sends a target process frames from a socket
// that is not its sender's: one from an unknown sender id, one claiming a
// registered id. Each carries an envelope for a level the process has no
// instance at, which would panic its mailbox goroutine if delivered. Both
// must be dropped, and the process must still take the lock.
func TestUDPForgedFramesDropped(t *testing.T) {
	fab, hs := udpHandles(t, topology.Uniform(2, 3, 0, 0), core.Spec{Intra: "naimi", Inter: "naimi"})
	defer fab.Close()
	foreign := NewUDP("", 0)
	defer foreign.Close()
	foreign.SetRemote(1, fab.Addr(1))
	forged := core.Envelope{Level: 7, Inner: naimitrehel.Token{}}
	for _, id := range []mutex.ID{99, 2} {
		foreign.RegisterAt(id, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
		foreign.Endpoint(id).Send(1, forged)
	}
	h := hs.Get(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	h.Unlock()
}

// TestUDPPerLinkOrder holds the UDP transport to the mutex.Env contract of
// FIFO delivery per (sender, receiver) pair: 1,000 sequenced messages from
// process 0 to process 1 must arrive in strictly increasing order. Loss is
// within the transport's contract, so a short count is logged, not failed.
func TestUDPPerLinkOrder(t *testing.T) {
	const k = 1000
	net := NewUDP("", 0)
	defer net.Close()
	got := make(chan mutex.ID, k)
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.RegisterAt(1, 0, handlerFunc(func(from mutex.ID, m mutex.Message) {
		got <- m.(naimitrehel.Request).Origin
	}))
	ep := net.Endpoint(0)
	for i := 0; i < k; i++ {
		ep.Send(1, naimitrehel.Request{Origin: mutex.ID(i)})
	}
	// Stop at the last message, or once the link has been quiet for a
	// second (the rest was lost).
	received, last := 0, mutex.ID(-1)
	for last != k-1 {
		select {
		case seq := <-got:
			if seq <= last {
				t.Fatalf("link reordered: seq %d arrived after %d", seq, last)
			}
			received, last = received+1, seq
		case <-time.After(time.Second):
			t.Logf("%d of %d messages arrived, in order; the link went quiet after seq %d", received, k, last)
			return
		}
	}
	t.Logf("%d of %d messages arrived, in order", received, k)
}

func TestUDPCloseIdempotent(t *testing.T) {
	net := NewUDP("", 0)
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.Close()
	net.Close()
}

func TestUDPSendToUnknownPanics(t *testing.T) {
	net := NewUDP("", 0)
	defer net.Close()
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	defer func() {
		if recover() == nil {
			t.Error("send to unknown did not panic")
		}
	}()
	net.Endpoint(0).Send(9, ring.Token{})
}

// TestSplitUDPDeployment runs one composed deployment across two separate
// UDPNetwork instances — the same wiring two OS processes would use, with
// addresses exchanged via SetRemote — and verifies the distributed lock
// works across the boundary.
func TestSplitUDPDeployment(t *testing.T) {
	netA := NewUDP("", 0) // hosts cluster 0: coordinator 0, apps 1, 2
	netB := NewUDP("", 0) // hosts cluster 1: coordinator 3, apps 4, 5
	defer netA.Close()
	defer netB.Close()

	homes := map[mutex.ID]*UDPNetwork{
		0: netA, 1: netA, 2: netA,
		3: netB, 4: netB, 5: netB,
	}
	clusterA := []mutex.ID{0, 1, 2}
	clusterB := []mutex.ID{3, 4, 5}
	coords := []mutex.ID{0, 3}

	// Register one dispatcher per process on its home network.
	procs := make(map[mutex.ID]*core.Process)
	for id, home := range homes {
		p := core.NewProcess(id, home.Endpoint(id))
		procs[id] = p
		home.RegisterAt(id, int(id), p)
	}
	// Exchange addresses, exactly as two OS processes would at startup.
	for id, home := range homes {
		for _, other := range homes {
			if other != home {
				other.SetRemote(id, home.Addr(id))
			}
		}
	}

	// Wire the composition by hand (the builders assume one fabric).
	intraF, err := algorithms.Factory("naimi")
	if err != nil {
		t.Fatal(err)
	}
	handles := make(map[mutex.ID]*Handle)
	buildCluster := func(members []mutex.ID, coord *core.Coordinator) mutex.Instance {
		var coordIntra mutex.Instance
		for _, id := range members {
			var cbs mutex.Callbacks
			if id == coord.ID() {
				cbs = coord.IntraCallbacks()
			} else {
				h := newHandle(id)
				handles[id] = h
				cbs = h.callbacks()
			}
			inst, err := intraF(mutex.Config{
				Self: id, Members: members, Holder: coord.ID(),
				Env: procs[id].Env(0), Callbacks: cbs,
			})
			if err != nil {
				t.Fatal(err)
			}
			procs[id].Attach(0, inst)
			if id == coord.ID() {
				coordIntra = inst
			} else {
				id := id
				handles[id].bind(inst, func(f func()) { homes[id].Post(id, f) })
			}
		}
		return coordIntra
	}
	coordA, coordB := core.NewCoordinator(0), core.NewCoordinator(3)
	intraA := buildCluster(clusterA, coordA)
	intraB := buildCluster(clusterB, coordB)
	var inters []mutex.Instance
	for i, c := range []*core.Coordinator{coordA, coordB} {
		inst, err := intraF(mutex.Config{
			Self: coords[i], Members: coords, Holder: coords[0],
			Env: procs[coords[i]].Env(1), Callbacks: c.InterCallbacks(),
		})
		if err != nil {
			t.Fatal(err)
		}
		procs[coords[i]].Attach(1, inst)
		inters = append(inters, inst)
	}
	// Boot on the coordinators' serial contexts, as the builders do.
	netA.Post(0, func() { coordA.Start(intraA, inters[0]) })
	netB.Post(3, func() { coordB.Start(intraB, inters[1]) })

	// Drive the lock from both sides of the split. Unlike the
	// single-network tests, no Go-level happens-before edge crosses the
	// socket boundary, so the checks use atomics: the CAS detects any
	// mutual exclusion overlap without itself providing the exclusion.
	var counter, inCS atomic.Int64
	var wg sync.WaitGroup
	for _, id := range []mutex.ID{1, 2, 4, 5} {
		h := handles[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := h.Lock(ctx); err != nil {
					cancel()
					t.Error(err)
					return
				}
				cancel()
				if !inCS.CompareAndSwap(0, 1) {
					t.Error("mutual exclusion violated across the split")
				}
				counter.Add(1)
				inCS.Store(0)
				h.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := counter.Load(); got != 32 {
		t.Fatalf("counter = %d, want 32", got)
	}
}

package livenet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"gridmutex/internal/livenet/wire"
	"gridmutex/internal/mutex"
)

// UDPNetwork implements mutex.Fabric over real UDP sockets, mirroring the
// paper's C-over-UDP implementation. Each process owns one socket; frames
// are [sender id, 4 bytes big-endian][wire-encoded message].
//
// Delivery relies on the transport: on loopback (the supported deployment
// for examples and tests) datagrams are reliable and ordered in practice.
// The algorithms tolerate reordering of independent messages, but a lossy
// WAN deployment would need a retransmission layer this repository does
// not provide.
type UDPNetwork struct {
	host     string
	basePort int

	mu     sync.Mutex
	procs  map[mutex.ID]*udpProc
	addrs  map[mutex.ID]*net.UDPAddr
	closed bool
	wg     sync.WaitGroup
}

type udpProc struct {
	conn *net.UDPConn
	mbox *mailbox
}

// NewUDP creates a UDP fabric on host (empty means 127.0.0.1), which names
// one address, not a wildcard: a frame is accepted only from the address
// recorded for its sender. With basePort > 0, process id binds port
// basePort+id — a fixed scheme other OS processes can predict; with
// basePort 0 every process binds an ephemeral port (single-process
// deployments).
func NewUDP(host string, basePort int) *UDPNetwork {
	if host == "" {
		host = "127.0.0.1"
	}
	return &UDPNetwork{
		host:     host,
		basePort: basePort,
		procs:    make(map[mutex.ID]*udpProc),
		addrs:    make(map[mutex.ID]*net.UDPAddr),
	}
}

// RegisterAt implements mutex.Fabric: it binds the process's socket and
// starts its reader and mailbox goroutines.
func (n *UDPNetwork) RegisterAt(id mutex.ID, node int, h mutex.Handler) {
	if h == nil {
		panic("livenet: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("livenet: register on closed UDP network")
	}
	if _, dup := n.procs[id]; dup {
		panic(fmt.Sprintf("livenet: process %d registered twice", id))
	}
	port := 0
	if n.basePort > 0 {
		port = n.basePort + int(id)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(n.host), Port: port})
	if err != nil {
		panic(fmt.Sprintf("livenet: bind process %d: %v", id, err))
	}
	p := &udpProc{conn: conn, mbox: newMailbox()}
	n.procs[id] = p
	n.addrs[id] = conn.LocalAddr().(*net.UDPAddr)

	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		p.mbox.drain()
	}()
	go func() {
		defer n.wg.Done()
		n.readLoop(p, h)
	}()
}

// readLoop decodes datagrams and posts deliveries to the process mailbox.
// A frame is accepted only from the address recorded for its sender id, so
// a datagram from any other socket cannot speak for a process.
func (n *UDPNetwork) readLoop(p *udpProc, h mutex.Handler) {
	buf := make([]byte, 64*1024)
	for {
		k, src, err := p.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if k < 4 {
			continue // runt frame
		}
		from := mutex.ID(int32(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])))
		if addr := n.Addr(from); addr == nil || unmapped(addr.AddrPort()) != unmapped(src) {
			continue // forged or unknown sender: drop
		}
		m, err := wire.DecodeFull(buf[4:k])
		if err != nil {
			continue // corrupt frame: drop, like a checksum failure would
		}
		p.mbox.put(func() { h.Deliver(from, m) })
	}
}

// unmapped strips an IPv4-in-IPv6 prefix, so an address recorded in
// net.IP's 16-byte form equals the same address read off the socket.
func unmapped(a netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

// Endpoint implements mutex.Fabric.
func (n *UDPNetwork) Endpoint(id mutex.ID) mutex.Env {
	return &udpEndpoint{net: n, self: id}
}

// Post schedules f on the serial context of process id.
func (n *UDPNetwork) Post(id mutex.ID, f func()) {
	n.mu.Lock()
	p, ok := n.procs[id]
	n.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("livenet: post to unregistered process %d", id))
	}
	p.mbox.put(f)
}

// Addr returns the UDP address process id is bound to.
func (n *UDPNetwork) Addr(id mutex.ID) *net.UDPAddr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrs[id]
}

// SetRemote records the address of a process hosted by another OS process,
// so a partial local deployment can address it.
func (n *UDPNetwork) SetRemote(id mutex.ID, addr *net.UDPAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[id] = addr
}

// Close shuts every socket and mailbox down and waits for the goroutines.
func (n *UDPNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	procs := make([]*udpProc, 0, len(n.procs))
	for _, p := range n.procs {
		procs = append(procs, p)
	}
	n.mu.Unlock()
	for _, p := range procs {
		p.conn.Close()
		p.mbox.close()
	}
	n.wg.Wait()
}

func (n *UDPNetwork) send(from, to mutex.ID, m mutex.Message) {
	n.mu.Lock()
	p, okFrom := n.procs[from]
	addr, okTo := n.addrs[to]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	if !okFrom {
		panic(fmt.Sprintf("livenet: send from unregistered process %d", from))
	}
	if !okTo {
		panic(fmt.Sprintf("livenet: message %s from %d to unknown process %d", m.Kind(), from, to))
	}
	frame := []byte{byte(uint32(from) >> 24), byte(uint32(from) >> 16), byte(uint32(from) >> 8), byte(uint32(from))}
	frame, err := wire.Encode(frame, m)
	if err != nil {
		panic(fmt.Sprintf("livenet: encode %s: %v", m.Kind(), err))
	}
	// Datagram sends on loopback only fail under resource exhaustion;
	// treat a failure like a dropped packet (the transport's contract).
	_, _ = p.conn.WriteToUDP(frame, addr)
}

type udpEndpoint struct {
	net  *UDPNetwork
	self mutex.ID
}

func (e *udpEndpoint) Send(to mutex.ID, m mutex.Message) { e.net.send(e.self, to, m) }
func (e *udpEndpoint) Local(f func())                    { e.net.Post(e.self, f) }

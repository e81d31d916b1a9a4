package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a windowed streaming client: it pipelines up to Window
// batch frames before blocking on acks, matching seqs to send times so
// every resolved batch yields an end-to-end latency sample. It is the
// engine under cmd/artload and the loopback tests; one goroutine sends,
// an internal reader goroutine resolves.
type Client struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	window      int
	idleTimeout time.Duration
	onResolve   func(seq uint64, code byte, latNs float64)

	mu       sync.Mutex
	cond     *sync.Cond
	inflight map[uint64]time.Time
	nextSeq  uint64
	err      error // terminal reader error (nil on clean Bye)
	done     bool  // reader exited

	sent, acked, shed, lost uint64
	ackedRecords            uint64
	latNs                   []float64
	sheds                   map[byte]uint64
}

// ClientConfig parameterizes Dial.
type ClientConfig struct {
	// Tenant is the tenant slot the stream drives.
	Tenant uint32
	// ClientID labels the stream on the server (logs only).
	ClientID string
	// Window is the maximum number of unresolved batches in flight
	// before Send blocks. 0 uses 8.
	Window int
	// IdleTimeout bounds the wait for any single frame from the
	// server; an idle stream past it fails rather than hanging a load
	// run forever. 0 uses 30s; negative disables.
	IdleTimeout time.Duration
	// OnResolve, when non-nil, is invoked from the reader goroutine
	// for every resolved batch with its status code and end-to-end
	// latency — the load generator's retry hook.
	OnResolve func(seq uint64, code byte, latNs float64)
}

// Dial connects, handshakes, and starts the reader. A server that
// refuses the Hello (bad tenant, draining) fails here with the
// server's code in the error.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:           nc,
		br:          bufio.NewReaderSize(nc, 64<<10),
		bw:          bufio.NewWriterSize(nc, 64<<10),
		window:      cfg.Window,
		idleTimeout: cfg.IdleTimeout,
		onResolve:   cfg.OnResolve,
		inflight:    make(map[uint64]time.Time),
		nextSeq:     1,
		sheds:       make(map[byte]uint64),
	}
	cl.cond = sync.NewCond(&cl.mu)
	if _, err := nc.Write(AppendHello(nil, cfg.Tenant, cfg.ClientID)); err != nil {
		nc.Close()
		return nil, err
	}
	if cfg.IdleTimeout > 0 {
		nc.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
	}
	f, err := ReadDecode(cl.br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("serve: handshake: %w", err)
	}
	if f.Type != FrameHelloAck || f.Code != CodeOK {
		nc.Close()
		return nil, fmt.Errorf("serve: server refused stream: %s (%s)",
			CodeString(f.Code), f.Msg)
	}
	nc.SetReadDeadline(time.Time{})
	go cl.readLoop()
	return cl, nil
}

// readLoop resolves acks and rejects until Bye, error, or idle
// timeout.
func (c *Client) readLoop() {
	var terminal error
	for {
		if c.idleTimeout > 0 {
			c.c.SetReadDeadline(time.Now().Add(c.idleTimeout))
		}
		f, err := ReadDecode(c.br)
		if err != nil {
			terminal = err
			break
		}
		switch f.Type {
		case FrameAck:
			c.resolve(f.Seq, CodeOK, f.Count)
			continue
		case FrameReject:
			if f.Seq == 0 {
				terminal = fmt.Errorf("serve: stream rejected: %s (%s)",
					CodeString(f.Code), f.Msg)
			} else {
				c.resolve(f.Seq, f.Code, 0)
				continue
			}
		case FrameDrain:
			continue
		case FrameBye:
			terminal = nil
		default:
			terminal = fmt.Errorf("serve: unexpected frame type 0x%02x", f.Type)
		}
		break
	}
	c.mu.Lock()
	c.err = terminal
	c.done = true
	// Whatever is still in flight will never resolve: it is lost.
	c.lost += uint64(len(c.inflight))
	c.inflight = map[uint64]time.Time{}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// resolve settles one in-flight batch.
func (c *Client) resolve(seq uint64, code byte, records uint32) {
	now := time.Now()
	c.mu.Lock()
	start, ok := c.inflight[seq]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.inflight, seq)
	lat := float64(now.Sub(start))
	if code == CodeOK {
		c.acked++
		c.ackedRecords += uint64(records)
		c.latNs = append(c.latNs, lat)
	} else {
		c.shed++
		c.sheds[code]++
	}
	cb := c.onResolve
	c.cond.Broadcast()
	c.mu.Unlock()
	if cb != nil {
		cb(seq, code, lat)
	}
}

// reserve blocks until there is window room, then registers a new seq.
func (c *Client) reserve() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.inflight) >= c.window && !c.done {
		c.cond.Wait()
	}
	if c.done {
		if c.err != nil {
			return 0, c.err
		}
		return 0, fmt.Errorf("serve: stream closed")
	}
	seq := c.nextSeq
	c.nextSeq++
	c.inflight[seq] = time.Now()
	c.sent++
	return seq, nil
}

// abandon rolls back a reserve whose write failed.
func (c *Client) abandon(seq uint64) {
	c.mu.Lock()
	if _, ok := c.inflight[seq]; ok {
		delete(c.inflight, seq)
		c.sent--
		c.lost++
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// SendAccessBatch streams one batch of pure accesses, blocking while
// the window is full. Returns the batch's seq. Shed batches surface
// through Stats (and OnResolve), not as an error.
func (c *Client) SendAccessBatch(addrs []uint64, writes []bool) (uint64, error) {
	seq, err := c.reserve()
	if err != nil {
		return 0, err
	}
	if err := c.write(AppendAccessBatch(nil, seq, addrs, writes)); err != nil {
		c.abandon(seq)
		return 0, err
	}
	return seq, nil
}

// SendBatch streams one batch of arbitrary records (access, alloc,
// free), blocking while the window is full. Returns the batch's seq.
func (c *Client) SendBatch(recs []Record) (uint64, error) {
	seq, err := c.reserve()
	if err != nil {
		return 0, err
	}
	if err := c.write(AppendBatch(nil, seq, recs)); err != nil {
		c.abandon(seq)
		return 0, err
	}
	return seq, nil
}

// write sends one encoded frame and flushes (a batch frame is larger
// than the buffer's useful coalescing window anyway, and acks only
// flow once the server has the bytes).
func (c *Client) write(frame []byte) error {
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ClientStats is a stream's outcome ledger. Sent = Acked + Shed + Lost
// after Close; Lost must be zero against a healthy server.
type ClientStats struct {
	// Sent counts batches written; Acked those fully applied; Shed
	// those explicitly rejected (backpressure or tenant state); Lost
	// those that never resolved (server or connection died).
	Sent, Acked, Shed, Lost uint64
	// AckedRecords totals the records of acked batches.
	AckedRecords uint64
	// Sheds breaks Shed down by reject code.
	Sheds map[byte]uint64
	// LatNs holds one end-to-end latency sample (ns) per acked batch.
	LatNs []float64
}

// Stats snapshots the ledger.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClientStats{
		Sent: c.sent, Acked: c.acked, Shed: c.shed, Lost: c.lost,
		AckedRecords: c.ackedRecords,
		Sheds:        make(map[byte]uint64, len(c.sheds)),
		LatNs:        append([]float64(nil), c.latNs...),
	}
	for k, v := range c.sheds {
		st.Sheds[k] = v
	}
	return st
}

// Close finishes the stream politely: Bye, wait for every in-flight
// batch to resolve and the server's Bye to arrive, then close. The
// returned stats are final.
func (c *Client) Close() (ClientStats, error) {
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	if !done {
		// Ignore write errors: a dead connection resolves via the
		// reader's EOF, and stats still settle.
		c.write(AppendBye(nil))
		c.mu.Lock()
		for !c.done {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}
	c.c.Close()
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	return c.Stats(), err
}

package live

import (
	"bufio"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"intsched/internal/wire"
)

// The client's limits. Like the daemon's they are constants: no caller in
// the repository needs another value.
const (
	// defaultQueryTimeout bounds a query whose caller gave no timeout.
	defaultQueryTimeout = 5 * time.Second
	// clientIdleTimeout is how long a connection may stay parked and still
	// be reused. It is below the daemon's queryIdleTimeout, so the client
	// gives a connection up before the daemon does and a reused connection
	// is rarely a dead one.
	clientIdleTimeout = 4 * time.Second
	// maxIdleConnsPerAddr is how many connections stay parked per scheduler
	// address. A device asks one question at a time; the second slot keeps
	// two overlapping askers from taking turns to dial.
	maxIdleConnsPerAddr = 2
)

// Client is the device side of the query wire. It keeps the connection of a
// finished query parked for the next one to the same scheduler, so a device
// that asks repeatedly dials once. It is safe for concurrent use: each query
// in flight has a connection to itself. The zero value is ready to use.
type Client struct {
	mu sync.Mutex
	// idle holds each address's parked connections, oldest first.
	idle map[string][]*clientConn
	// swept is when every address was last cleared of expired connections.
	swept time.Time
}

// defaultClient serves the package-level Query.
var defaultClient Client

// Query asks the scheduler at addr one question and returns its answer,
// through a package-level Client: the first query to an address dials, later
// ones reuse the connection unless it sat idle longer than the scheduler
// would keep it. A non-positive timeout means 5 s. An
// answer carrying an Error is returned together with that error.
func Query(addr string, req *wire.QueryRequest, timeout time.Duration) (*wire.QueryResponse, error) {
	return defaultClient.Query(addr, req, timeout)
}

// Query is the package-level Query on this client's connections.
//
// A parked connection may have been closed by the scheduler since (restart,
// idle deadline, admission cap). When a reused connection is lost before any
// byte of the response arrived, the query is sent once more on a fresh dial:
// it is read-only, so at worst the scheduler ranks twice. A timeout is never
// retried, and neither is a connection dialled for this query.
func (c *Client) Query(addr string, req *wire.QueryRequest, timeout time.Duration) (*wire.QueryResponse, error) {
	if timeout <= 0 {
		timeout = defaultQueryTimeout
	}
	now := time.Now()
	deadline := now.Add(timeout)
	cc := c.take(addr, now)
	reused := cc != nil
	if !reused {
		var err error
		if cc, err = dialQuery(addr, deadline); err != nil {
			return nil, err
		}
	}
	resp, err := cc.roundTrip(req, deadline)
	if err != nil && reused && cc.received == 0 && connectionLost(err) {
		cc.Close()
		if cc, err = dialQuery(addr, deadline); err != nil {
			return nil, err
		}
		resp, err = cc.roundTrip(req, deadline)
	}
	if err != nil {
		cc.Close()
		return nil, err
	}
	c.park(addr, cc)
	if resp.Error != "" {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// CloseIdleConnections closes every parked connection.
func (c *Client) CloseIdleConnections() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, conns := range c.idle {
		for _, cc := range conns {
			cc.Close()
		}
		delete(c.idle, addr)
	}
}

// take returns addr's most recently parked connection, or nil when there is
// none young enough to reuse.
func (c *Client) take(addr string, now time.Time) *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	conns := c.expireLocked(addr, now)
	if len(conns) == 0 {
		return nil
	}
	c.idle[addr] = conns[:len(conns)-1]
	return conns[len(conns)-1]
}

// park keeps cc for addr's next query, or closes it when addr's slots are
// taken.
func (c *Client) park(addr string, cc *clientConn) {
	cc.parked = time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc.parked.Sub(c.swept) > clientIdleTimeout {
		// Addresses no longer asked would otherwise keep their sockets.
		c.swept = cc.parked
		for a := range c.idle {
			c.expireLocked(a, cc.parked)
		}
	}
	if len(c.idle[addr]) >= maxIdleConnsPerAddr {
		cc.Close()
		return
	}
	if c.idle == nil {
		c.idle = make(map[string][]*clientConn)
	}
	c.idle[addr] = append(c.idle[addr], cc)
}

// expireLocked closes addr's connections parked longer than
// clientIdleTimeout and returns the ones that remain.
func (c *Client) expireLocked(addr string, now time.Time) []*clientConn {
	conns := slices.DeleteFunc(c.idle[addr], func(cc *clientConn) bool {
		if now.Sub(cc.parked) <= clientIdleTimeout {
			return false
		}
		cc.Close()
		return true
	})
	if len(conns) == 0 {
		delete(c.idle, addr)
	} else {
		c.idle[addr] = conns
	}
	return conns
}

// clientConn is one connection to a scheduler with the buffers its frames
// pass through.
type clientConn struct {
	net.Conn
	br *bufio.Reader
	f  wire.Framer
	// received counts the bytes read for the query in flight.
	received int
	parked   time.Time
}

func dialQuery(addr string, deadline time.Time) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	cc := &clientConn{Conn: conn}
	cc.br = bufio.NewReader(cc)
	return cc, nil
}

// Read counts what the connection delivers, for the retry rule.
func (cc *clientConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.received += n
	return n, err
}

// roundTrip sends req and reads its answer.
func (cc *clientConn) roundTrip(req *wire.QueryRequest, deadline time.Time) (*wire.QueryResponse, error) {
	cc.received = 0
	_ = cc.SetDeadline(deadline) // a failure shows at the write
	if err := cc.f.WriteFrame(cc.Conn, req); err != nil {
		return nil, err
	}
	resp := new(wire.QueryResponse)
	if err := cc.f.ReadFrame(cc.br, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// connectionLost reports whether err says the peer closed or reset the
// connection, as opposed to a timeout or a frame that would not encode or
// decode.
func connectionLost(err error) bool {
	if errors.Is(err, io.EOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && !ne.Timeout()
}

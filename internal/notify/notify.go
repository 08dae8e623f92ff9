// Package notify is the transport between fiber vendors and the repair-
// ticket collector: a minimal line-oriented TCP protocol in the spirit of
// the email delivery path §4.3.2 describes ("the emails are automatically
// parsed and stored in a database").
//
// Protocol: a client connects and sends any number of messages. Each
// message is a sequence of text lines terminated by a line containing a
// single period; message lines that begin with a period are dot-stuffed as
// in SMTP. After each message the server replies with one status line:
// "OK" when its handler accepted the message, or "ERR <reason>". The client
// fails fast on ERR.
//
// The server bounds what one connection can make it hold: a line whose
// bytes before '\n' reach bufio.MaxScanTokenSize (the limit
// tickets.Parse applies), or a message longer than 1 MiB, gets
// "ERR message too large" and the connection is closed.
package notify

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

const (
	// maxLineBytes bounds one received line, '\n' included, so the
	// longest accepted line has maxLineBytes-1 bytes before its '\n'.
	maxLineBytes = bufio.MaxScanTokenSize
	// maxMessageBytes bounds one received message as handed to the
	// handler.
	maxMessageBytes = 1 << 20
)

// statusTooLarge is the status line sent before closing a connection that
// went over maxLineBytes or maxMessageBytes.
const statusTooLarge = "ERR message too large"

// Handler processes one received message. Returning an error rejects the
// message: the sender sees an ERR status.
type Handler func(text string) error

// Server accepts vendor connections and feeds each received message to its
// handler. Use NewServer, then Start (or Serve with your own listener), and
// Close to shut down.
type Server struct {
	handler Handler

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	received int
	wg       sync.WaitGroup
}

// NewServer returns a Server delivering messages to handler.
func NewServer(handler Handler) *Server {
	if handler == nil {
		panic("notify: nil handler")
	}
	return &Server{handler: handler, conns: make(map[net.Conn]struct{})}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("notify: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close() // the "server closed" error is the one that matters
		return "", errors.New("notify: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr().String(), nil
}

// Serve accepts connections from ln until Close. It is the blocking
// alternative to Start for callers that manage their own listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("notify: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // shutting down; the accept loop exits either way
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// HandleConn serves one already-established connection (useful for
// in-memory transports like net.Pipe in tests). It returns when the peer
// disconnects.
func (s *Server) HandleConn(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.handleConn(conn)
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, maxLineBytes)
	bw := bufio.NewWriter(conn)
	var msg strings.Builder
	for {
		raw, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			reply(bw, statusTooLarge)
			return
		}
		if err != nil {
			return
		}
		line := bytes.TrimRight(raw, "\r\n")
		if string(line) == "." {
			status := "OK"
			if err := s.handler(msg.String()); err != nil {
				status = "ERR " + strings.ReplaceAll(err.Error(), "\n", " ")
			} else {
				s.mu.Lock()
				s.received++
				s.mu.Unlock()
			}
			msg.Reset()
			if !reply(bw, status) {
				return
			}
			continue
		}
		if bytes.HasPrefix(line, []byte("..")) {
			line = line[1:] // undo dot-stuffing
		}
		if msg.Len()+len(line)+1 > maxMessageBytes {
			reply(bw, statusTooLarge)
			return
		}
		msg.Write(line)
		msg.WriteByte('\n')
	}
}

// reply sends one status line and reports whether it went out.
func reply(bw *bufio.Writer, status string) bool {
	if _, err := bw.WriteString(status + "\n"); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// Received reports how many messages the handler has accepted.
func (s *Server) Received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Close stops the listener and closes every open connection, then waits
// for the connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.conns {
		// Peers may already have hung up; a failed listener close is the
		// only error worth surfacing.
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Client is a vendor-side sender.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects to a collector at addr. The context bounds connection
// establishment.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("notify: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. one side of net.Pipe).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// Send transmits one message and waits for the server's status line. A
// server-side rejection surfaces as an error prefixed with the server's
// reason.
func (c *Client) Send(text string) error {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, ".") {
			line = "." + line // dot-stuff
		}
		if _, err := c.bw.WriteString(line + "\n"); err != nil {
			return fmt.Errorf("notify: write: %w", err)
		}
	}
	if _, err := c.bw.WriteString(".\n"); err != nil {
		return fmt.Errorf("notify: write: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("notify: flush: %w", err)
	}
	status, err := c.br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("notify: reading status: %w", err)
	}
	status = strings.TrimRight(status, "\r\n")
	if status == "OK" {
		return nil
	}
	return fmt.Errorf("notify: server rejected message: %s", strings.TrimPrefix(status, "ERR "))
}

// Notify is an alias for Send, satisfying the health.Sink interface: a
// dialed Client plugs straight into the health engine as its alert
// transition sink.
func (c *Client) Notify(text string) error { return c.Send(text) }

// SetDeadline bounds subsequent sends.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SendAll dials addr, sends every message in order, and closes the
// connection. It stops at the first failure. The context bounds the dial
// and, via its deadline if any, each send.
func SendAll(ctx context.Context, addr string, messages []string) error {
	c, err := Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if deadline, ok := ctx.Deadline(); ok {
		if err := c.SetDeadline(deadline); err != nil {
			return err
		}
	}
	for i, m := range messages {
		if err := c.Send(m); err != nil {
			return fmt.Errorf("notify: message %d of %d: %w", i+1, len(messages), err)
		}
	}
	return nil
}

// Recorder is an in-memory notification sink: it satisfies the same
// Notify interface as Client but simply accumulates messages. The health
// engine uses one when no collector endpoint is configured, so alert
// transitions are always inspectable after a run.
type Recorder struct {
	mu   sync.Mutex
	msgs []string
}

// Notify records one message. It never fails.
func (r *Recorder) Notify(text string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, text)
	return nil
}

// Messages returns a copy of everything recorded, in arrival order.
func (r *Recorder) Messages() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.msgs...)
}

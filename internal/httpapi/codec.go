// Package httpapi exposes the market services over JSON/HTTP: the Bank, the
// Service Location Service, and per-host Auctioneers, each with a typed Go
// client. These are the deployable counterparts of the in-process components
// the simulator wires directly — the same bank.Bank, sls.Registry and
// auction.Market instances sit behind the handlers, so daemon and simulation
// behaviour cannot drift apart.
//
// Authentication follows the paper's model: operations that move money carry
// an application-level Ed25519 signature inside the request body (the bank
// verifies it against the account's registered key), so the transport needs
// no session state and no ACLs.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"tycoongrid/internal/retry"
	"tycoongrid/internal/tracing"
)

// apiError is the wire form of a failure.
type apiError struct {
	Error string `json:"error"`
}

// MaxBodyBytes caps request and response bodies at 1 MiB.
const MaxBodyBytes = 1 << 20

// ErrBodyTooLarge reports a request body over MaxBodyBytes; handlers map it
// to 413 Request Entity Too Large via ReadStatus.
var ErrBodyTooLarge = errors.New("httpapi: request body exceeds 1 MiB limit")

// ReadStatus maps a ReadJSON error to its HTTP status.
func ReadStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteJSON emits a 200 response with a JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more we can do.
		return
	}
}

// WriteError maps service errors to HTTP statuses.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: err.Error()})
}

// ReadJSON decodes a request body with a size cap. Bodies over MaxBodyBytes
// are rejected with ErrBodyTooLarge rather than silently truncated into a
// confusing decode error.
func ReadJSON(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		return fmt.Errorf("httpapi: reading body: %w", err)
	}
	if len(body) > MaxBodyBytes {
		return ErrBodyTooLarge
	}
	if len(body) == 0 {
		return errors.New("httpapi: empty request body")
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("httpapi: decoding body: %w", err)
	}
	return nil
}

// DefaultClientTimeout bounds a whole client exchange (dial, request,
// response) when a New*Client constructor is handed a nil *http.Client.
// http.DefaultClient would wait forever on a hung daemon.
const DefaultClientTimeout = 15 * time.Second

// Caller is the shared fault-tolerant transport of the four typed clients:
// an HTTP client plus a retry.Policy and a circuit breaker, both labeled
// with the client's name in /metrics. Idempotent calls go through the retry
// policy; single-shot calls still get the breaker, so a dead daemon fails
// fast everywhere.
type Caller struct {
	name    string
	client  *http.Client
	policy  retry.Policy
	breaker *retry.Breaker
}

// newCaller builds a Caller named name (the metrics label). A nil client
// defaults to one with DefaultClientTimeout.
func newCaller(name string, client *http.Client) Caller {
	if client == nil {
		client = &http.Client{Timeout: DefaultClientTimeout}
	}
	return Caller{
		name:    name,
		client:  client,
		policy:  retry.Policy{Name: name},
		breaker: retry.NewBreaker(retry.BreakerConfig{Name: name}),
	}
}

// attempt runs one exchange under the breaker inside its own child span
// ("rpc.attempt", numbered), so a retried call renders as one parent span
// with N attempt children and a breaker-fast-fail is visible as an aborted
// attempt that never reached the wire. A Permanent (4xx) error is recorded
// as breaker success: the daemon answered, the request was just wrong, and
// wrong requests must not blow the circuit for everyone else.
func (c *Caller) attempt(ctx context.Context, n int, method, url, contentType string, body []byte, out any) error {
	span, ctx := tracing.Default().StartSpan(ctx, "rpc.attempt",
		tracing.String("client", c.name),
		tracing.String("method", method),
		tracing.String("url", url),
		tracing.String("attempt", strconv.Itoa(n)))
	if err := c.breaker.Allow(); err != nil {
		span.SetAttr(tracing.String("aborted", "breaker-open"))
		span.EndErr(err)
		return err
	}
	err := send(ctx, c.client, method, url, contentType, body, out)
	if retry.IsPermanent(err) {
		c.breaker.Record(nil)
	} else {
		c.breaker.Record(err)
	}
	span.EndErr(err)
	return err
}

// call wraps a whole exchange — all attempts — in one "rpc.<client>" span
// whose parent comes from ctx or, for the context-free typed clients, the
// tracer's current scope. retries > 1 means the retry policy drives it.
func (c *Caller) call(ctx context.Context, retries bool, method, url, contentType string, body []byte, out any) error {
	parent, ctx := tracing.Default().StartSpan(ctx, "rpc."+c.name,
		tracing.String("method", method), tracing.String("url", url))
	var err error
	if retries {
		n := 0
		err = c.policy.Do(ctx, func(actx context.Context) error {
			n++
			return c.attempt(actx, n, method, url, contentType, body, out)
		})
	} else {
		err = c.attempt(ctx, 1, method, url, contentType, body, out)
	}
	parent.EndErr(err)
	return err
}

// get fetches url with retries — GETs are idempotent by construction.
func (c *Caller) get(ctx context.Context, url string, out any) error {
	return c.call(ctx, true, http.MethodGet, url, "", nil, out)
}

// post sends one non-idempotent JSON request: a single attempt under the
// breaker, because replaying it could repeat a side effect.
func (c *Caller) post(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("httpapi: encoding request: %w", err)
	}
	return c.call(ctx, false, http.MethodPost, url, "application/json", body, out)
}

// postIdempotent sends a JSON request that is safe to replay — the server
// deduplicates it (nonce-protected transfers, token-protected boosts) or the
// operation is a state refresh (heartbeats) — with full retries.
func (c *Caller) postIdempotent(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("httpapi: encoding request: %w", err)
	}
	return c.call(ctx, true, http.MethodPost, url, "application/json", body, out)
}

// del sends a DELETE as a single attempt under the breaker: deletes answer
// 404 on replay, so a retry after a lost response would mask the outcome.
func (c *Caller) del(ctx context.Context, url string, out any) error {
	return c.call(ctx, false, http.MethodDelete, url, "", nil, out)
}

// rawPost sends a non-JSON body (xRSL submissions) as a single attempt.
func (c *Caller) rawPost(ctx context.Context, url, contentType, body string, out any) error {
	return c.call(ctx, false, http.MethodPost, url, contentType, []byte(body), out)
}

// send executes one HTTP exchange and decodes the JSON response into out
// (which may be nil). The response body is capped at MaxBodyBytes and always
// drained before close so the connection returns to the pool. Non-2xx
// responses become errors carrying the server's message; 4xx ones are marked
// retry.Permanent since re-sending an invalid request cannot succeed.
func send(ctx context.Context, client *http.Client, method, url, contentType string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return retry.Permanent(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Propagate the active span (the rpc.attempt child) so the server joins
	// this trace; each retry attempt therefore has its own wire identity.
	if sc := tracing.SpanFromContext(ctx).Context(); sc.Valid() {
		req.Header.Set(tracing.TraceparentHeader, tracing.FormatTraceparent(sc))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes+1))
	if err != nil {
		return err
	}
	if len(raw) > MaxBodyBytes {
		return fmt.Errorf("httpapi: %s %s: response body exceeds %d byte limit", method, url, MaxBodyBytes)
	}
	if resp.StatusCode/100 != 2 {
		var ae apiError
		if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
			err = fmt.Errorf("httpapi: %s %s: %s (status %d)", method, url, ae.Error, resp.StatusCode)
		} else {
			err = fmt.Errorf("httpapi: %s %s: status %d", method, url, resp.StatusCode)
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			err = retry.Permanent(err)
		}
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("httpapi: decoding response: %w", err)
	}
	return nil
}

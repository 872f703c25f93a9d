package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"localwm/internal/server"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// daemon is an in-process lwmd: server.Config{} defaults plus a store
// opened on a temp directory, exactly as `lwmd -store-dir` wires them,
// served on a loopback port.
type daemon struct {
	store  *store.Store
	srv    *server.Server
	hs     *http.Server
	base   string
	dir    string
	client *http.Client
	served chan error
}

func bootDaemon(tmp string) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{Store: st})
	d := &daemon{
		store:  st,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
		// Raw net/http, no retries: a refused or failed request is
		// counted, never retried.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close drains the daemon, stops its listener, waits for the serve loop
// to exit, and removes the store directory.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errs := []error{d.srv.Shutdown(ctx), d.hs.Shutdown(ctx)}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	d.client.CloseIdleConnections()
	errs = append(errs, d.store.Close(), os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// call sends one request and reads the whole answer.
func (d *daemon) call(method, path string, body []byte, hdr http.Header) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header, err
}

// put registers a design over PUT /v1/designs and returns its ref.
func (d *daemon) put(family, text string) (string, error) {
	body, err := json.Marshal(lwmapi.PutDesignRequest{Family: family, Design: text})
	if err != nil {
		return "", err
	}
	status, out, _, err := d.call(http.MethodPut, "/v1/designs", body, nil)
	if err != nil {
		return "", fmt.Errorf("put: %w", err)
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return "", fmt.Errorf("put: status %d: %s", status, out)
	}
	var resp lwmapi.PutDesignResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return "", fmt.Errorf("put: %w", err)
	}
	return resp.Ref, nil
}

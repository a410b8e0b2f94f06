// Command mascd runs the MASC middleware (internal/daemon) as a real
// HTTP deployment: SOAP POSTs to /vep/<name> are mediated by the wsBus
// gateway, /process/OrderingProcess hosts the composition, and the
// management API lives under /api/v1 (docs/observability.md).
//
//	mascd -listen :8080
//	curl -s -X POST --data '<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><getCatalog xmlns="urn:wsi:scm"><category>tv</category></getCatalog></e:Body></e:Envelope>' http://localhost:8080/vep/Retailer
//
// config.go declares the flags; DESIGN.md "Daemon assembly" maps each
// to the daemon.Config field it fills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mascd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := parseFlags(args, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	if cfg.version {
		fmt.Println("mascd", version.Version)
		return nil
	}

	d, err := daemon.New(cfg.Config)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Start()

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	gateway := d.Gateway()
	retailer, err := gateway.VEP("Retailer")
	if err != nil {
		return err
	}
	fmt.Printf("mascd: SOAP gateway on %s (VEPs: %s; retailers: %s)\n",
		ln.Addr(), strings.Join(gateway.VEPs(), ", "), strings.Join(retailer.Services(), ", "))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sigc:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Shutdown stops the listener and waits for open connections;
		// draining additionally waits for gateway requests accepted
		// before the signal, so recoveries in progress can complete.
		shutdownErr := server.Shutdown(ctx)
		if err := d.Drain(ctx); err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		return shutdownErr
	}
}

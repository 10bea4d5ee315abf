package transport

import "github.com/paris-kv/paris/internal/topology"

// TCPOptions is the empty option set of ListenTCPOpts: a TCPNode keeps one
// connection per peer and has nothing left to tune. It stays for the frozen
// callers in benchmark/cluster.go and benchmark/probes.go.
type TCPOptions struct{}

// ListenTCPOpts is ListenTCP; the options are ignored. It stays for the same
// frozen callers as TCPOptions.
func ListenTCPOpts(self topology.NodeID, listenAddr string, book AddressBook, handler Handler, _ TCPOptions) (*TCPNode, error) {
	return ListenTCP(self, listenAddr, book, handler)
}

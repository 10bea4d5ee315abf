package paris_test

import (
	"context"
	"fmt"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/transport"
)

// quietConfig keeps doc examples fast and deterministic.
func quietConfig() paris.Config {
	return paris.Config{
		NumDCs:            3,
		NumPartitions:     6,
		ReplicationFactor: 2,
		Latency:           transport.Uniform{IntraDC: 0, InterDC: time.Millisecond},
		ApplyInterval:     time.Millisecond,
	}
}

// ExampleSession_Update shows the basic transactional write-then-read flow.
func ExampleSession_Update() {
	cluster, err := paris.NewCluster(quietConfig())
	if err != nil {
		panic(err)
	}
	defer func() { _ = cluster.Close() }()

	ctx := context.Background()
	session, err := cluster.NewSession(0)
	if err != nil {
		panic(err)
	}
	defer session.Close()

	if _, err := session.Update(ctx, func(tx *paris.Tx) error {
		return tx.Write("greeting", []byte("bonjour"))
	}); err != nil {
		panic(err)
	}

	vals, err := session.Get(ctx, "greeting")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(vals["greeting"]))
	// Output: bonjour
}

// ExampleTx_AddCounter shows conflict-free counters: concurrent increments
// merge by summation instead of last-writer-wins.
func ExampleTx_AddCounter() {
	cfg := quietConfig()
	cfg.Resolvers = map[string]paris.ResolverKind{"cnt:": paris.ResolverCounter}
	cluster, err := paris.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	defer func() { _ = cluster.Close() }()

	ctx := context.Background()
	var last paris.Timestamp
	for dc := paris.DCID(0); dc < 3; dc++ {
		session, err := cluster.NewSession(dc)
		if err != nil {
			panic(err)
		}
		ct, err := session.Update(ctx, func(tx *paris.Tx) error {
			return tx.AddCounter("cnt:likes", 10)
		})
		session.Close()
		if err != nil {
			panic(err)
		}
		if ct > last {
			last = ct
		}
	}
	if !cluster.WaitForUST(last, 10*time.Second) {
		panic("stabilization stalled")
	}

	session, err := cluster.NewSession(1)
	if err != nil {
		panic(err)
	}
	defer session.Close()
	var likes int64
	if err := session.View(ctx, func(tx *paris.Tx) error {
		var err error
		likes, err = tx.ReadCounter(ctx, "cnt:likes")
		return err
	}); err != nil {
		panic(err)
	}
	fmt.Println(likes)
	// Output: 30
}

// ExampleCluster_WaitForUST shows how a commit becomes universally visible
// once the Universal Stable Time passes its commit timestamp.
func ExampleCluster_WaitForUST() {
	cluster, err := paris.NewCluster(quietConfig())
	if err != nil {
		panic(err)
	}
	defer func() { _ = cluster.Close() }()

	ctx := context.Background()
	writer, err := cluster.NewSession(0)
	if err != nil {
		panic(err)
	}
	defer writer.Close()

	ct, err := writer.Put(ctx, map[string][]byte{"k": []byte("v")})
	if err != nil {
		panic(err)
	}
	if !cluster.WaitForUST(ct, 10*time.Second) {
		panic("stabilization stalled")
	}

	// Any session in any DC now sees the write.
	reader, err := cluster.NewSession(2)
	if err != nil {
		panic(err)
	}
	defer reader.Close()
	vals, err := reader.Get(ctx, "k")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(vals["k"]))
	// Output: v
}

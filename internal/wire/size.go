package wire

// hlc.Timestamp encodes as two u64s.
const tsSize = 16

// ApproxSize estimates a message's encoded size in bytes without encoding
// it. The flow-control layer uses it to charge token buckets and account
// send-queue depth, and MemNet uses it to model link serialization time.
// Every payload-bearing message (anything carrying a slice) walks its
// actual keys and values, so the estimate tracks the real frame size
// closely — the wiresync analyzer enforces the coverage; for the remaining
// fixed-shape messages a small flat estimate is enough.
func ApproxSize(msg Message) int {
	switch m := msg.(type) {
	case ReplicateBatch:
		n := 1 + 4 + 8 + 8 + tsSize*3 + 8 + 4 // kind, SrcDC, Epoch, Seq, UpTo/UST/Sold, Round, group count
		for _, g := range m.Groups {
			n += tsSize + 4 // CT, txn count
			for _, tx := range g.Txns {
				n += 8 + 4 + 4 // TxID, SrcDC, write count
				n += kvsSize(tx.Writes)
			}
		}
		return n
	case ReplSyncResp:
		n := 1 + 4 + 8 + 8 + tsSize + 4
		for _, it := range m.Items {
			n += 4 + len(it.Key) + 4 + len(it.Value) + tsSize + 8 + 4
		}
		return n
	case Replicate:
		n := 1 + 4 + tsSize + 4
		for _, tx := range m.Txns {
			n += 8 + 4 + 4 + kvsSize(tx.Writes)
		}
		return n
	case CommitRecover:
		return 1 + 8 + tsSize + 4 + kvsSize(m.Writes)
	case PrepareReq:
		return 1 + 8 + tsSize + tsSize + 4 + kvsSize(m.Writes)
	case PrepareBatch:
		n := 1 + 4
		for _, r := range m.Reqs {
			n += 8 + tsSize + tsSize + 4 + kvsSize(r.Writes)
		}
		return n
	case PrepareBatchResp:
		n := 1 + 4
		for _, r := range m.Resps {
			n += 8 + tsSize + 2 + 4 + len(r.Msg)
		}
		return n
	case ReadReq:
		n := 1 + 8 + tsSize + 4 + keysSize(m.Keys) + 4
		for _, ck := range m.Cached {
			n += 4 + len(ck.Key) + tsSize
		}
		return n
	case ReadResp:
		return 1 + 8 + tsSize + 4 + itemsSize(m.Items)
	case ReadSliceReq:
		return 1 + tsSize + 4 + keysSize(m.Keys)
	case ReadSliceResp:
		return 1 + 4 + itemsSize(m.Items)
	case CommitReq:
		return 1 + 8 + tsSize + tsSize + 4 + kvsSize(m.Writes)
	case ReplStatus:
		return 1 + 4 + 8 + 8 + tsSize*3 + 8
	default:
		return 64
	}
}

func keysSize(keys []string) int {
	n := 0
	for _, k := range keys {
		n += 4 + len(k)
	}
	return n
}

func itemsSize(items []Item) int {
	n := 0
	for _, it := range items {
		n += 4 + len(it.Key) + 4 + len(it.Value) + tsSize + 8 + 4
	}
	return n
}

func kvsSize(kvs []KV) int {
	n := 0
	for _, kv := range kvs {
		n += 4 + len(kv.Key) + 4 + len(kv.Value)
	}
	return n
}

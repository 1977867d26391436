#include "btree.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace xpc::apps {

namespace {

constexpr uint32_t btreeMagic = 0xb7ee0001;
constexpr uint8_t nodeLeaf = 1;
constexpr uint8_t nodeInternal = 2;

/**
 * A node page is an 8 B header (type byte at 0, 2 B key count at
 * nodeKeysAt, 4 B next page at nodeNextAt) and its slots: a leaf's
 * are key, 4 B value length and value, an internal node's key and
 * 4 B child page.
 */
constexpr uint32_t nodeKeysAt = 2;
constexpr uint32_t nodeNextAt = 4;
constexpr uint32_t nodeHeaderBytes = 8;
/** Slots per leaf: 8B header + n * (24 key + 4 len + 1000 value). */
constexpr uint32_t leafCap = 3;
/** Entries per internal node (kept modest so splits get exercised). */
constexpr uint32_t internalCap = 64;
constexpr uint32_t leafSlotBytes = btreeKeyBytes + 4 + btreeValueMax;
constexpr uint32_t intSlotBytes = btreeKeyBytes + 4;

static_assert(nodeHeaderBytes + leafCap * leafSlotBytes <= dbPageBytes);
static_assert(nodeHeaderBytes + internalCap * intSlotBytes <=
              dbPageBytes);

/** Read a @p T stored at @p p in a page's bytes. */
template <typename T>
T
load(const uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/** The key count in the header of the node page @p node. */
uint16_t
keyCount(const uint8_t *node)
{
    return load<uint16_t>(node + nodeKeysAt);
}

/** Byte offset of slot @p i in a leaf. */
constexpr uint32_t
leafSlot(uint32_t i)
{
    return nodeHeaderBytes + i * leafSlotBytes;
}

/** Byte offset of slot @p i in an internal node. */
constexpr uint32_t
intSlot(uint32_t i)
{
    return nodeHeaderBytes + i * intSlotBytes;
}

/** The value length of the leaf slot at @p slot; panics if corrupt. */
uint32_t
valueLen(const uint8_t *slot)
{
    uint32_t len = load<uint32_t>(slot + btreeKeyBytes);
    panic_if(len > btreeValueMax, "corrupt leaf slot");
    return len;
}

/** Host-side decoded node. */
struct Node
{
    bool leaf = true;
    /** Leaf: right sibling (0 = none). Internal: leftmost child. */
    uint32_t next = 0;

    struct LeafEntry
    {
        BtKey key;
        std::vector<uint8_t> value;
    };
    struct IntEntry
    {
        BtKey key;
        uint32_t child;
    };

    std::vector<LeafEntry> leafEntries;
    std::vector<IntEntry> intEntries;
};

Node
decode(const DbPage &page)
{
    Node n;
    const uint8_t *d = page.data.data();
    uint16_t nkeys = keyCount(d);
    n.next = load<uint32_t>(d + nodeNextAt);
    n.leaf = d[0] != nodeInternal;
    if (n.leaf) {
        for (uint16_t i = 0; i < nkeys; i++) {
            const uint8_t *slot = d + leafSlot(i);
            Node::LeafEntry e;
            std::memcpy(e.key.bytes, slot, btreeKeyBytes);
            const uint8_t *value = slot + btreeKeyBytes + 4;
            e.value.assign(value, value + valueLen(slot));
            n.leafEntries.push_back(std::move(e));
        }
    } else {
        for (uint16_t i = 0; i < nkeys; i++) {
            const uint8_t *slot = d + intSlot(i);
            Node::IntEntry e;
            std::memcpy(e.key.bytes, slot, btreeKeyBytes);
            e.child = load<uint32_t>(slot + btreeKeyBytes);
            n.intEntries.push_back(e);
        }
    }
    return n;
}

void
encode(const Node &n, DbPage &page)
{
    uint8_t *d = page.data.data();
    std::memset(d, 0, dbPageBytes);
    d[0] = n.leaf ? nodeLeaf : nodeInternal;
    uint16_t nkeys = uint16_t(n.leaf ? n.leafEntries.size()
                                     : n.intEntries.size());
    std::memcpy(d + nodeKeysAt, &nkeys, 2);
    std::memcpy(d + nodeNextAt, &n.next, 4);
    if (n.leaf) {
        panic_if(n.leafEntries.size() > leafCap, "leaf overflow");
        for (uint16_t i = 0; i < nkeys; i++) {
            uint8_t *slot = d + leafSlot(i);
            const auto &e = n.leafEntries[i];
            std::memcpy(slot, e.key.bytes, btreeKeyBytes);
            uint32_t len = uint32_t(e.value.size());
            std::memcpy(slot + btreeKeyBytes, &len, 4);
            std::memcpy(slot + btreeKeyBytes + 4, e.value.data(), len);
        }
    } else {
        panic_if(n.intEntries.size() > internalCap,
                 "internal overflow");
        for (uint16_t i = 0; i < nkeys; i++) {
            uint8_t *slot = d + intSlot(i);
            const auto &e = n.intEntries[i];
            std::memcpy(slot, e.key.bytes, btreeKeyBytes);
            std::memcpy(slot + btreeKeyBytes, &e.child, 4);
        }
    }
}

} // namespace

BtKey
BtKey::fromString(const std::string &s)
{
    BtKey k;
    std::memcpy(k.bytes, s.data(),
                std::min<size_t>(s.size(), btreeKeyBytes));
    return k;
}

BTree::BTree(PagedFile &f) : file(f) {}

uint32_t
BTree::rootPage()
{
    DbPage &hdr = file.get(0);
    uint32_t magic, root;
    std::memcpy(&magic, hdr.data.data(), 4);
    std::memcpy(&root, hdr.data.data() + 4, 4);
    panic_if(magic != btreeMagic, "not a MiniDb B+tree file");
    return root;
}

void
BTree::setRoot(uint32_t page_no)
{
    DbPage &hdr = file.get(0);
    file.markDirty(0);
    std::memcpy(hdr.data.data(), &btreeMagic, 4);
    std::memcpy(hdr.data.data() + 4, &page_no, 4);
}

void
BTree::create()
{
    panic_if(file.pageCount() != 0, "create on a non-empty file");
    file.appendPage(); // header
    uint32_t root = file.appendPage();
    Node empty;
    empty.leaf = true;
    DbPage &p = file.get(root);
    file.markDirty(root);
    encode(empty, p);
    setRoot(root);
}

BTree::SplitResult
BTree::insertInto(uint32_t page_no, const BtKey &key,
                  const void *value, uint32_t len, bool *inserted)
{
    SplitResult res;
    Node node = decode(file.get(page_no));

    if (node.leaf) {
        auto it = std::lower_bound(
            node.leafEntries.begin(), node.leafEntries.end(), key,
            [](const Node::LeafEntry &e, const BtKey &k) {
                return e.key < k;
            });
        const auto *bytes = static_cast<const uint8_t *>(value);
        if (it != node.leafEntries.end() && it->key == key) {
            it->value.assign(bytes, bytes + len);
            *inserted = false;
        } else {
            Node::LeafEntry e;
            e.key = key;
            e.value.assign(bytes, bytes + len);
            node.leafEntries.insert(it, std::move(e));
            *inserted = true;
        }

        if (node.leafEntries.size() > leafCap) {
            // Split: move the upper half right.
            size_t mid = node.leafEntries.size() / 2;
            Node right;
            right.leaf = true;
            right.next = node.next;
            right.leafEntries.assign(
                std::make_move_iterator(node.leafEntries.begin() +
                                        long(mid)),
                std::make_move_iterator(node.leafEntries.end()));
            node.leafEntries.resize(mid);

            uint32_t right_page = file.appendPage();
            node.next = right_page;
            DbPage &rp = file.get(right_page);
            file.markDirty(right_page);
            encode(right, rp);

            res.split = true;
            res.sepKey = right.leafEntries.front().key;
            res.rightPage = right_page;
        }

        DbPage &p = file.get(page_no);
        file.markDirty(page_no);
        encode(node, p);
        return res;
    }

    // Internal node: find the child to descend into.
    size_t idx = 0;
    while (idx < node.intEntries.size() &&
           !(key < node.intEntries[idx].key)) {
        idx++;
    }
    uint32_t child = idx == 0 ? node.next
                              : node.intEntries[idx - 1].child;

    SplitResult child_split =
        insertInto(child, key, value, len, inserted);
    if (!child_split.split)
        return res;

    // Re-read: the recursive call may have evicted our page.
    node = decode(file.get(page_no));
    Node::IntEntry e{child_split.sepKey, child_split.rightPage};
    auto it = std::lower_bound(
        node.intEntries.begin(), node.intEntries.end(),
        child_split.sepKey,
        [](const Node::IntEntry &a, const BtKey &k) {
            return a.key < k;
        });
    node.intEntries.insert(it, e);

    if (node.intEntries.size() > internalCap) {
        size_t mid = node.intEntries.size() / 2;
        Node right;
        right.leaf = false;
        // The middle key moves up; its child seeds the right node.
        res.sepKey = node.intEntries[mid].key;
        right.next = node.intEntries[mid].child;
        right.intEntries.assign(node.intEntries.begin() + long(mid) + 1,
                                node.intEntries.end());
        node.intEntries.resize(mid);

        uint32_t right_page = file.appendPage();
        DbPage &rp = file.get(right_page);
        file.markDirty(right_page);
        encode(right, rp);

        res.split = true;
        res.rightPage = right_page;
    }

    DbPage &p = file.get(page_no);
    file.markDirty(page_no);
    encode(node, p);
    return res;
}

bool
BTree::put(const BtKey &key, const void *value, uint32_t len)
{
    panic_if(len > btreeValueMax, "value of %u bytes too large", len);
    bool inserted = false;
    uint32_t root = rootPage();
    SplitResult split = insertInto(root, key, value, len, &inserted);
    if (split.split) {
        Node new_root;
        new_root.leaf = false;
        new_root.next = root;
        new_root.intEntries.push_back({split.sepKey, split.rightPage});
        uint32_t page = file.appendPage();
        DbPage &p = file.get(page);
        file.markDirty(page);
        encode(new_root, p);
        setRoot(page);
    }
    return inserted;
}

uint32_t
BTree::findLeaf(uint32_t page_no, const BtKey &key)
{
    // Read each node in place: a lookup needs one child pointer per
    // internal node, not a decoded copy of it.
    for (;;) {
        const uint8_t *d = file.get(page_no).data.data();
        uint16_t nkeys = keyCount(d);
        if (d[0] != nodeInternal) {
            // Check every slot's length, as decode() does.
            for (uint16_t i = 0; i < nkeys; i++)
                valueLen(d + leafSlot(i));
            return page_no;
        }
        // Descend left of the first key above @p key.
        const uint8_t *child = d + nodeNextAt;
        for (uint16_t i = 0; i < nkeys; i++) {
            const uint8_t *slot = d + intSlot(i);
            if (std::memcmp(key.bytes, slot, btreeKeyBytes) < 0)
                break;
            child = slot + btreeKeyBytes;
        }
        page_no = load<uint32_t>(child);
    }
}

std::optional<std::vector<uint8_t>>
BTree::get(const BtKey &key)
{
    uint32_t leaf = findLeaf(rootPage(), key);
    const uint8_t *d = file.get(leaf).data.data();
    uint16_t nkeys = keyCount(d);
    for (uint16_t i = 0; i < nkeys; i++) {
        const uint8_t *slot = d + leafSlot(i);
        if (std::memcmp(slot, key.bytes, btreeKeyBytes) == 0) {
            const uint8_t *value = slot + btreeKeyBytes + 4;
            return std::vector<uint8_t>(value, value + valueLen(slot));
        }
    }
    return std::nullopt;
}

bool
BTree::erase(const BtKey &key)
{
    uint32_t leaf = findLeaf(rootPage(), key);
    Node node = decode(file.get(leaf));
    for (auto it = node.leafEntries.begin();
         it != node.leafEntries.end(); ++it) {
        if (it->key == key) {
            node.leafEntries.erase(it);
            DbPage &p = file.get(leaf);
            file.markDirty(leaf);
            encode(node, p);
            return true;
        }
    }
    return false;
}

uint32_t
BTree::scan(const BtKey &start, uint32_t limit,
            const std::function<void(const BtKey &, const uint8_t *,
                                     uint32_t)> &visit)
{
    uint32_t visited = 0;
    uint32_t leaf = findLeaf(rootPage(), start);
    while (leaf != 0 && visited < limit) {
        Node node = decode(file.get(leaf));
        for (const auto &e : node.leafEntries) {
            if (visited >= limit)
                break;
            if (e.key < start)
                continue;
            visit(e.key, e.value.data(), uint32_t(e.value.size()));
            visited++;
        }
        leaf = node.next;
    }
    return visited;
}

uint32_t
BTree::height()
{
    uint32_t h = 1;
    uint32_t page = rootPage();
    for (;;) {
        Node node = decode(file.get(page));
        if (node.leaf)
            return h;
        page = node.next;
        h++;
    }
}

uint64_t
BTree::recordCount()
{
    uint64_t count = 0;
    uint32_t page = rootPage();
    // Descend to the leftmost leaf.
    for (;;) {
        Node node = decode(file.get(page));
        if (node.leaf)
            break;
        page = node.next;
    }
    while (page != 0) {
        Node node = decode(file.get(page));
        count += node.leafEntries.size();
        page = node.next;
    }
    return count;
}

void
BTree::checkInvariants()
{
    // 1. Every leaf is at the same depth and keys are globally
    //    ordered along the leaf chain.
    uint32_t page = rootPage();
    uint32_t depth = 1;
    for (;;) {
        Node node = decode(file.get(page));
        if (node.leaf)
            break;
        panic_if(node.intEntries.empty() && depth > 1,
                 "empty internal node");
        page = node.next;
        depth++;
    }
    uint32_t expected_height = height();
    panic_if(depth != expected_height, "leftmost depth mismatch");

    BtKey prev{};
    bool first = true;
    while (page != 0) {
        Node node = decode(file.get(page));
        panic_if(!node.leaf, "non-leaf on the leaf chain");
        for (const auto &e : node.leafEntries) {
            if (!first) {
                panic_if(!(prev < e.key),
                         "keys out of order along the leaf chain");
            }
            prev = e.key;
            first = false;
        }
        page = node.next;
    }
}

} // namespace xpc::apps

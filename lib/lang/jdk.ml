(** The mini-JDK: container classes and small utilities written in MiniJava.

    This stands in for JDK 1.6 (DESIGN.md, substitution 2). The containers are
    *real implementations* — an array-backed [ArrayList], a node-based
    [LinkedList], an entry-chain [HashMap], a delegating [HashSet], iterators
    and map views — so a context-insensitive analysis genuinely merges element
    flows inside them, which is precisely what the container access pattern
    has to repair. The API classification (Entrances / Exits / Transfers)
    lives in [Csc_core.Spec]. *)

let source =
  {|
class Object { }
class String { }

// ------------------------------------------------------------- collections

class Collection {
  void add(Object e) { }
  Object get(int i) { return null; }
  int size() { return 0; }
  boolean isEmpty() { return true; }
  boolean contains(Object e) { return false; }
  Iterator iterator() { return null; }
}

class Iterator {
  boolean hasNext() { return false; }
  Object next() { return null; }
}

class ArrayList extends Collection {
  Object[] elems;
  int size;

  ArrayList() {
    this.elems = new Object[8];
    this.size = 0;
  }

  void add(Object e) {
    if (this.size == this.elems.length) {
      this.grow();
    }
    this.elems[this.size] = e;
    this.size = this.size + 1;
  }

  void set(int i, Object e) {
    this.elems[i] = e;
  }

  void grow() {
    Object[] bigger = new Object[this.size + this.size];
    int i = 0;
    while (i < this.size) {
      bigger[i] = this.elems[i];
      i = i + 1;
    }
    this.elems = bigger;
  }

  Object get(int i) {
    Object r = this.elems[i];
    return r;
  }

  Object removeLast() {
    this.size = this.size - 1;
    Object r = this.elems[this.size];
    return r;
  }

  int size() { return this.size; }
  boolean isEmpty() { return this.size == 0; }

  boolean contains(Object e) {
    int i = 0;
    boolean found = false;
    while (i < this.size) {
      if (this.elems[i] == e) {
        found = true;
      }
      i = i + 1;
    }
    return found;
  }

  Iterator iterator() {
    ArrayListIterator it = new ArrayListIterator(this);
    return it;
  }
}

class ArrayListIterator extends Iterator {
  ArrayList list;
  int idx;

  ArrayListIterator(ArrayList l) {
    this.list = l;
    this.idx = 0;
  }

  boolean hasNext() { return this.idx < this.list.size; }

  Object next() {
    Object r = this.list.get(this.idx);
    this.idx = this.idx + 1;
    return r;
  }
}

class ListNode {
  Object item;
  ListNode next;
}

class LinkedList extends Collection {
  ListNode head;
  int size;

  LinkedList() {
    this.head = null;
    this.size = 0;
  }

  void add(Object e) {
    ListNode n = new ListNode();
    n.item = e;
    n.next = this.head;
    this.head = n;
    this.size = this.size + 1;
  }

  Object get(int i) {
    ListNode n = this.head;
    int k = this.size - 1;
    while (k > i) {
      n = n.next;
      k = k - 1;
    }
    Object r = n.item;
    return r;
  }

  int size() { return this.size; }
  boolean isEmpty() { return this.size == 0; }

  boolean contains(Object e) {
    ListNode n = this.head;
    boolean found = false;
    while (n != null) {
      if (n.item == e) {
        found = true;
      }
      n = n.next;
    }
    return found;
  }

  // removes and returns the oldest element (index 0)
  Object removeFirst() {
    Object r;
    if (this.size == 1) {
      r = this.head.item;
      this.head = null;
    } else {
      ListNode n = this.head;
      while (n.next.next != null) {
        n = n.next;
      }
      r = n.next.item;
      n.next = null;
    }
    this.size = this.size - 1;
    return r;
  }

  Iterator iterator() {
    LinkedListIterator it = new LinkedListIterator(this.head);
    return it;
  }
}

class LinkedListIterator extends Iterator {
  ListNode cur;

  LinkedListIterator(ListNode h) { this.cur = h; }

  boolean hasNext() { return this.cur != null; }

  Object next() {
    Object r = this.cur.item;
    this.cur = this.cur.next;
    return r;
  }
}

class HashSet extends Collection {
  ArrayList inner;

  HashSet() { this.inner = new ArrayList(); }

  void add(Object e) {
    boolean c = this.inner.contains(e);
    if (!c) {
      this.inner.add(e);
    }
  }

  int size() { return this.inner.size(); }
  boolean isEmpty() { return this.inner.isEmpty(); }
  boolean contains(Object e) { return this.inner.contains(e); }

  Iterator iterator() { return this.inner.iterator(); }
}

// -------------------------------------------------------------------- maps

class Map {
  void put(Object k, Object v) { }
  Object get(Object k) { return null; }
  boolean containsKey(Object k) { return false; }
  int size() { return 0; }
  KeySetView keySet() { return null; }
  ValuesView values() { return null; }
}

class MapEntry {
  Object key;
  Object val;
  MapEntry next;
}

class HashMap extends Map {
  MapEntry head;
  int size;

  HashMap() {
    this.head = null;
    this.size = 0;
  }

  void put(Object k, Object v) {
    MapEntry e = this.findEntry(k);
    if (e == null) {
      MapEntry fresh = new MapEntry();
      fresh.key = k;
      fresh.val = v;
      fresh.next = this.head;
      this.head = fresh;
      this.size = this.size + 1;
    } else {
      e.val = v;
    }
  }

  MapEntry findEntry(Object k) {
    MapEntry e = this.head;
    MapEntry found = null;
    while (e != null) {
      if (e.key == k) {
        found = e;
      }
      e = e.next;
    }
    return found;
  }

  Object get(Object k) {
    MapEntry e = this.findEntry(k);
    Object r = null;
    if (e != null) {
      r = e.val;
    }
    return r;
  }

  boolean containsKey(Object k) {
    MapEntry e = this.findEntry(k);
    return e != null;
  }

  int size() { return this.size; }

  KeySetView keySet() {
    KeySetView v = new KeySetView(this);
    return v;
  }

  ValuesView values() {
    ValuesView v = new ValuesView(this);
    return v;
  }
}

class KeySetView {
  HashMap map;
  KeySetView(HashMap m) { this.map = m; }
  int size() { return this.map.size(); }
  Iterator iterator() {
    KeyIterator it = new KeyIterator(this.map);
    return it;
  }
}

class ValuesView {
  HashMap map;
  ValuesView(HashMap m) { this.map = m; }
  int size() { return this.map.size(); }
  Iterator iterator() {
    ValueIterator it = new ValueIterator(this.map);
    return it;
  }
}

class KeyIterator extends Iterator {
  MapEntry cur;
  KeyIterator(HashMap m) { this.cur = m.head; }
  boolean hasNext() { return this.cur != null; }
  Object next() {
    Object r = this.cur.key;
    this.cur = this.cur.next;
    return r;
  }
}

class ValueIterator extends Iterator {
  MapEntry cur;
  ValueIterator(HashMap m) { this.cur = m.head; }
  boolean hasNext() { return this.cur != null; }
  Object next() {
    Object r = this.cur.val;
    this.cur = this.cur.next;
    return r;
  }
}

// -------------------------------------------------- more container classes

class Stack extends Collection {
  ArrayList items;
  Stack() { this.items = new ArrayList(); }
  void push(Object e) { this.items.add(e); }
  Object pop() { return this.items.removeLast(); }
  Object peek() { return this.items.get(this.items.size() - 1); }
  int size() { return this.items.size(); }
  boolean isEmpty() { return this.items.isEmpty(); }
  Iterator iterator() { return this.items.iterator(); }
}

class DequeNode {
  Object elem;
  DequeNode prev;
  DequeNode next;
}

class ArrayDeque extends Collection {
  DequeNode head;
  DequeNode tail;
  int size;

  ArrayDeque() {
    this.head = null;
    this.tail = null;
    this.size = 0;
  }

  void addFirst(Object e) {
    DequeNode n = new DequeNode();
    n.elem = e;
    n.next = this.head;
    if (this.head != null) {
      this.head.prev = n;
    } else {
      this.tail = n;
    }
    this.head = n;
    this.size = this.size + 1;
  }

  void addLast(Object e) {
    DequeNode n = new DequeNode();
    n.elem = e;
    n.prev = this.tail;
    if (this.tail != null) {
      this.tail.next = n;
    } else {
      this.head = n;
    }
    this.tail = n;
    this.size = this.size + 1;
  }

  void add(Object e) { this.addLast(e); }

  Object removeFirst() {
    DequeNode n = this.head;
    this.head = n.next;
    if (this.head == null) {
      this.tail = null;
    } else {
      this.head.prev = null;
    }
    this.size = this.size - 1;
    return n.elem;
  }

  Object removeLast() {
    DequeNode n = this.tail;
    this.tail = n.prev;
    if (this.tail == null) {
      this.head = null;
    } else {
      this.tail.next = null;
    }
    this.size = this.size - 1;
    return n.elem;
  }

  Object peekFirst() {
    Object r = null;
    if (this.head != null) {
      r = this.head.elem;
    }
    return r;
  }

  Object peekLast() {
    Object r = null;
    if (this.tail != null) {
      r = this.tail.elem;
    }
    return r;
  }

  int size() { return this.size; }
  boolean isEmpty() { return this.size == 0; }

  Iterator iterator() {
    DequeIterator it = new DequeIterator(this.head);
    return it;
  }
}

class DequeIterator extends Iterator {
  DequeNode cur;
  DequeIterator(DequeNode h) { this.cur = h; }
  boolean hasNext() { return this.cur != null; }
  Object next() {
    Object r = this.cur.elem;
    this.cur = this.cur.next;
    return r;
  }
}

class Queue extends Collection {
  LinkedList items;
  Queue() { this.items = new LinkedList(); }
  void enqueue(Object e) { this.items.add(e); }
  void add(Object e) { this.items.add(e); }
  Object dequeue() { return this.items.removeFirst(); }
  Object front() { return this.items.get(0); }
  int size() { return this.items.size(); }
  boolean isEmpty() { return this.items.isEmpty(); }
  Iterator iterator() { return this.items.iterator(); }
}

// --------------------------------------------------------------- utilities

class Optional {
  Object value;

  static Optional of(Object v) {
    Optional o = new Optional();
    o.set(v);
    return o;
  }

  static Optional empty() { return new Optional(); }

  void set(Object v) { this.value = v; }

  Object get() { return this.value; }

  boolean isPresent() { return this.value != null; }

  Object orElse(Object dflt) {
    Object r = dflt;
    if (this.value != null) {
      r = this.value;
    }
    return r;
  }
}

class StringBuilder {
  ArrayList parts;
  StringBuilder() { this.parts = new ArrayList(); }
  StringBuilder append(Object part) {
    this.parts.add(part);
    return this;
  }
  int length() { return this.parts.size(); }
  Object part(int i) { return this.parts.get(i); }
}

class Collections {
  static void copyAll(Collection dst, Collection src) {
    Iterator it = src.iterator();
    while (it.hasNext()) {
      dst.add(it.next());
    }
  }

  static Object firstOf(Collection c) {
    Object r = null;
    if (!c.isEmpty()) {
      r = c.get(0);
    }
    return r;
  }

  static void fill(Collection dst, Object v, int n) {
    for (int i = 0; i < n; i = i + 1) {
      dst.add(v);
    }
  }
}

// --------------------------------------------------------------- utilities

class Box {
  Object val;
  Box(Object v) { this.set(v); }
  void set(Object v) { this.val = v; }
  Object get() { return this.val; }
}

class Pair {
  Object fst;
  Object snd;
  Pair(Object f, Object s) {
    this.fst = f;
    this.snd = s;
  }
  Object getFst() { return this.fst; }
  Object getSnd() { return this.snd; }
}

class Util {
  static Object id(Object x) { return x; }

  static Object select(boolean c, Object a, Object b) {
    Object r = b;
    if (c) {
      r = a;
    }
    return r;
  }

  static Object firstNonNull(Object a, Object b) {
    Object r = b;
    if (a != null) {
      r = a;
    }
    return r;
  }
}
|}

(* The class inventory is derived from [source] itself so it can never drift
   from the actual mini-JDK contents. *)
let class_names =
  lazy
    (let names = ref [] in
     let lines = String.split_on_char '\n' source in
     List.iter
       (fun line ->
         let line = String.trim line in
         let pfx = "class " in
         let plen = String.length pfx in
         if String.length line > plen && String.sub line 0 plen = pfx then begin
           let rest = String.sub line plen (String.length line - plen) in
           let stop = ref (String.length rest) in
           String.iteri
             (fun i c ->
               if !stop = String.length rest && (c = ' ' || c = '{') then
                 stop := i)
             rest;
           names := String.sub rest 0 !stop :: !names
         end)
       lines;
     List.rev !names)

let class_set =
  lazy
    (let h = Hashtbl.create 64 in
     List.iter (fun n -> Hashtbl.replace h n ()) (Lazy.force class_names);
     h)

let is_jdk_class name = Hashtbl.mem (Lazy.force class_set) name

let is_jdk_method (p : Csc_ir.Ir.program) =
  let by_class =
    Array.map (fun (c : Csc_ir.Ir.klass) -> is_jdk_class c.c_name) p.classes
  in
  fun m -> by_class.(p.methods.(m).m_class)

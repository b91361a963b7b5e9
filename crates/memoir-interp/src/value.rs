//! Runtime values and the collection store.

use crate::machine::{as_index, key_of, Concrete};
use memoir_ir::{ObjTypeId, Repr, Type};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Identifier of a collection in the [`Store`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CollId(pub u32);

/// Identifier of an object in the [`Store`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// A runtime value over integer payloads `I` and boolean payloads `B`:
/// [`Value`] in the concrete interpreter, terms in `symexec`. It is
/// `Copy`, so the executor reads operands out of registers by copy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Val<I, B> {
    /// Integer of a specific IR type (including `index`).
    Int(Type, I),
    /// Float of a specific IR type.
    Float(Type, f64),
    /// Boolean.
    Bool(B),
    /// Object reference (`None` = null).
    Ref(ObjTypeId, Option<ObjId>),
    /// Raw pointer payload (opaque).
    Ptr(u64),
    /// A collection handle into the store.
    Coll(CollId),
    /// Uninitialized element — reading one is undefined behaviour and the
    /// interpreter traps on it (§IV-B).
    Uninit,
}

/// A concrete runtime value.
pub type Value = Val<i64, bool>;

impl<I, B> Val<I, B> {
    /// Collection handle payload.
    pub fn as_coll(&self) -> Option<CollId> {
        match self {
            Val::Coll(c) => Some(*c),
            _ => None,
        }
    }
}

impl Value {
    /// Index payload (traps-by-panic on type confusion; the verifier rules
    /// this out for verified programs).
    pub fn as_index(&self) -> Option<u64> {
        Concrete::with(|dom| as_index(dom, *self))
    }

    /// Integer payload.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(_, v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(_, v) => write!(f, "{v}"),
            Value::Float(_, v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Ref(_, Some(o)) => write!(f, "@{}", o.0),
            Value::Ref(_, None) => write!(f, "null"),
            Value::Ptr(p) => write!(f, "ptr:{p:#x}"),
            Value::Coll(c) => write!(f, "coll:{}", c.0),
            Value::Uninit => write!(f, "uninit"),
        }
    }
}

/// Hashable key form of a value, for associative arrays. Objects compare
/// per-field (finite depth is guaranteed by the type system, §IV-E);
/// references compare by identity (shallow equality, §IV-D).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Key {
    /// Integer key.
    Int(i64),
    /// Boolean key.
    Bool(bool),
    /// Reference key (identity).
    Ref(Option<ObjId>),
    /// Float key by bit pattern (identity equality, §IV-D).
    Float(u64),
    /// Pointer key.
    Ptr(u64),
}

impl Key {
    /// Converts a runtime value into its key form.
    pub fn from_value(v: &Value) -> Option<Key> {
        Concrete::with(|dom| key_of(dom, *v))
    }

    /// Rebuilds a value from the key, given the key's IR type.
    pub fn to_value(&self, ty: Type) -> Value {
        match self {
            Key::Int(x) => Value::Int(ty, *x),
            Key::Bool(b) => Value::Bool(*b),
            Key::Ref(o) => match ty {
                Type::Ref(obj) => Value::Ref(obj, *o),
                _ => Value::Ref(ObjTypeId::from_raw(0), *o),
            },
            Key::Float(bits) => Value::Float(ty, f64::from_bits(*bits)),
            Key::Ptr(p) => Value::Ptr(*p),
        }
    }
}

/// A stored collection.
#[derive(Clone, Debug, PartialEq)]
pub enum Collection<V = Value> {
    /// Sequence storage.
    Seq(Vec<V>),
    /// Associative storage with deterministic (insertion-order) key
    /// enumeration.
    Assoc {
        /// Key → value map.
        map: HashMap<Key, V>,
        /// Keys in insertion order (the deterministic `keys` order).
        order: Vec<Key>,
    },
}

impl<V> Collection<V> {
    /// Creates an empty associative collection.
    pub fn new_assoc() -> Self {
        Collection::Assoc {
            map: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Collection::Seq(v) => v.len(),
            Collection::Assoc { map, .. } => map.len(),
        }
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An allocated object: per-field values, `None` after `delete`.
#[derive(Clone, Debug, PartialEq)]
pub struct Object<V = Value> {
    /// The object's type.
    pub ty: ObjTypeId,
    /// Field values (`None` = deleted object).
    pub fields: Option<Vec<V>>,
}

/// How a collection's elements are laid out, which sets what accessing
/// them costs ([`crate::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layout {
    /// A sequence buffer.
    Seq,
    /// A small inline buffer for a constant-length sequence.
    Inline,
    /// A hash table.
    Hashed,
    /// A direct-indexed array for an assoc with bounded integral keys.
    Dense,
}

impl Layout {
    /// The layout `repr` gives `c`: one meant for the other collection
    /// kind leaves the kind's default.
    fn of<V>(c: &Collection<V>, repr: Repr) -> Layout {
        match (c, repr) {
            (Collection::Seq(_), Repr::Inline { .. }) => Layout::Inline,
            (Collection::Seq(_), _) => Layout::Seq,
            (Collection::Assoc { .. }, Repr::Dense { .. }) => Layout::Dense,
            (Collection::Assoc { .. }, _) => Layout::Hashed,
        }
    }
}

/// The heap: collections and objects, copy-on-write. Each sits behind an
/// `Rc`, so a value copy (and a clone of the whole store) shares storage
/// until one side writes; [`Store::coll_mut`] and [`Store::obj_mut`] copy
/// a shared collection or object first.
#[derive(Clone, Debug)]
pub struct Store<V = Value> {
    collections: Vec<Rc<Collection<V>>>,
    /// Each collection's layout, by [`CollId`]. It prices accesses only
    /// (storage semantics are the same in every layout), and follows
    /// value copies.
    layouts: Vec<Layout>,
    objects: Vec<Rc<Object<V>>>,
}

impl<V> Default for Store<V> {
    fn default() -> Self {
        Store {
            collections: Vec::new(),
            layouts: Vec::new(),
            objects: Vec::new(),
        }
    }
}

impl<V: Clone> Store<V> {
    /// Allocates a collection, returning its handle.
    pub fn alloc_coll(&mut self, c: Collection<V>) -> CollId {
        let id = CollId(self.collections.len() as u32);
        self.layouts.push(Layout::of(&c, Repr::Default));
        self.collections.push(Rc::new(c));
        id
    }

    /// Immutable access to a collection.
    pub fn coll(&self, id: CollId) -> &Collection<V> {
        &self.collections[id.0 as usize]
    }

    /// Mutable access to a collection (copied first while shared).
    pub fn coll_mut(&mut self, id: CollId) -> &mut Collection<V> {
        Rc::make_mut(&mut self.collections[id.0 as usize])
    }

    /// A sequence's elements (`None` for an associative array).
    pub fn seq(&self, id: CollId) -> Option<&[V]> {
        match self.coll(id) {
            Collection::Seq(elems) => Some(elems),
            Collection::Assoc { .. } => None,
        }
    }

    /// A sequence's elements, mutably (copied first while shared).
    pub fn seq_mut(&mut self, id: CollId) -> Option<&mut Vec<V>> {
        match self.coll(id) {
            Collection::Seq(_) => match self.coll_mut(id) {
                Collection::Seq(elems) => Some(elems),
                Collection::Assoc { .. } => None,
            },
            // Not through `coll_mut`: that would copy a shared assoc.
            Collection::Assoc { .. } => None,
        }
    }

    /// Mutable access to two distinct collections at once.
    pub fn colls_mut(&mut self, a: CollId, b: CollId) -> [&mut Collection<V>; 2] {
        let [x, y] = self
            .collections
            .get_disjoint_mut([a.0 as usize, b.0 as usize])
            .expect("two distinct collections");
        [Rc::make_mut(x), Rc::make_mut(y)]
    }

    /// Immutable access to an object.
    pub fn obj(&self, id: ObjId) -> &Object<V> {
        &self.objects[id.0 as usize]
    }

    /// Mutable access to an object (copied first while shared).
    pub fn obj_mut(&mut self, id: ObjId) -> &mut Object<V> {
        Rc::make_mut(&mut self.objects[id.0 as usize])
    }

    /// Copies a collection by value (nested handles stay shared),
    /// returning the new handle and the number of elements copied. The
    /// copy shares storage with `id` until either is written.
    pub fn clone_coll(&mut self, id: CollId) -> (CollId, usize) {
        let c = Rc::clone(&self.collections[id.0 as usize]);
        let n = c.len();
        let copy = CollId(self.collections.len() as u32);
        self.collections.push(c);
        self.layouts.push(self.layout(id));
        (copy, n)
    }

    /// A collection's layout.
    pub(crate) fn layout(&self, id: CollId) -> Layout {
        self.layouts[id.0 as usize]
    }

    /// Lays collection `id` out as `repr` chooses.
    pub(crate) fn set_layout(&mut self, id: CollId, repr: Repr) {
        self.layouts[id.0 as usize] = Layout::of(self.coll(id), repr);
    }
}

impl<I: Copy, B: Copy> Store<Val<I, B>> {
    /// Allocates an object with all fields uninitialized.
    pub fn alloc_obj(&mut self, ty: ObjTypeId, nfields: usize) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(Rc::new(Object {
            ty,
            fields: Some(vec![Val::Uninit; nfields]),
        }));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trip() {
        let v = Value::Int(Type::I32, -7);
        let k = Key::from_value(&v).unwrap();
        assert_eq!(k.to_value(Type::I32), v);
        assert_eq!(Key::from_value(&Value::Bool(true)), Some(Key::Bool(true)));
        assert_eq!(Key::from_value(&Value::Uninit), None);
    }

    #[test]
    fn float_keys_use_identity() {
        let a = Key::from_value(&Value::Float(Type::F64, 0.0)).unwrap();
        let b = Key::from_value(&Value::Float(Type::F64, -0.0)).unwrap();
        assert_ne!(a, b, "identity equality distinguishes 0.0 from -0.0");
    }

    #[test]
    fn store_clone_counts_elements() {
        let mut s = Store::default();
        let id = s.alloc_coll(Collection::Seq(vec![Value::Int(Type::I64, 1); 5]));
        let (copy, n) = s.clone_coll(id);
        assert_eq!(n, 5);
        assert_ne!(copy, id);
        assert_eq!(s.coll(copy), s.coll(id));
    }
}

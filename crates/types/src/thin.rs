//! Exact-size, length-prefixed heap blocks: what [`Value::Str`],
//! [`Value::Bytes`] and [`Value::List`] hold.
//!
//! A `Box<[T]>` is a fat pointer — the address and the length, 16 bytes.
//! A [`Thin<T>`] is one 8-byte pointer to a block that starts with the
//! length and continues with exactly that many items, so a [`Value`] that
//! holds one is 16 bytes instead of 24.  The block costs 8 bytes more than
//! the box's did, once per string or list rather than once per value that
//! could hold one.  An empty `Thin` points at one shared static header and
//! owns no block at all.
//!
//! Every block is written through a [`Builder`], which knows how many of
//! its items are initialised: a clone, a conversion, a collect or a decode
//! that stops halfway — by an error or a panic — drops the items it wrote
//! and frees the block.  A dropped `Thin` is a builder whose items are all
//! written, so a block is freed in exactly one place, with the layout it
//! was allocated with.
//!
//! The three public types are newtypes over a `Thin`, each dereferencing to
//! the slice it stores: [`ThinStr`] to `str`, [`ThinBytes`] to `[u8]`,
//! [`ThinList`] to `[Value]`.

use crate::value::Value;
use std::alloc::{self, Layout};
use std::borrow::Cow;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop};
use std::ops::Deref;
use std::ptr::{self, NonNull};

/// The start of every block: how many items follow it.
#[repr(C)]
struct Header {
    len: usize,
}

/// Where every empty [`Thin`] points.  It is never written and never freed.
static EMPTY: Header = Header { len: 0 };

/// An owned, immutable run of `T`s in one block of exactly their size:
/// `[len: usize][T; len]`.  Items start right after the header, which is
/// aligned for every `T` this module stores.
struct Thin<T> {
    header: NonNull<Header>,
    items: PhantomData<T>,
}

// SAFETY: `header` is the only pointer to the block, so a `Thin<T>` owns its
// items as a `Box<[T]>` does and hands out only shared references to them
// (the static empty header, shared by all, is never written); it may cross
// threads when `T` may.
unsafe impl<T: Send> Send for Thin<T> {}
// SAFETY: as above; `&Thin<T>` gives out nothing but `&T`.
unsafe impl<T: Sync> Sync for Thin<T> {}

impl<T> Thin<T> {
    /// Bytes from the start of a block to its first item.
    const OFFSET: usize = {
        assert!(mem::align_of::<T>() <= mem::align_of::<Header>());
        mem::size_of::<Header>()
    };

    /// The layout of a block of `len` items, `len > 0`.  It is not padded to
    /// its alignment, so that a four-byte string asks for 12 bytes, not 16.
    fn layout(len: usize) -> Layout {
        mem::size_of::<T>()
            .checked_mul(len)
            .and_then(|items| items.checked_add(Self::OFFSET))
            .and_then(|size| Layout::from_size_align(size, mem::align_of::<Header>()).ok())
            .expect("block size overflows")
    }

    /// The first item of the block behind `header`.
    fn items_of(header: NonNull<Header>) -> *mut T {
        // SAFETY: every header, the static one included, is followed by
        // `OFFSET` bytes of the same allocation (or is one past its end, for
        // the static one), so the offset stays in bounds.
        unsafe { header.as_ptr().cast::<u8>().add(Self::OFFSET).cast::<T>() }
    }

    fn len(&self) -> usize {
        // SAFETY: `header` points at a live, initialised header: the static
        // one or that of the block this `Thin` owns.
        unsafe { self.header.as_ref().len }
    }

    fn as_slice(&self) -> &[T] {
        // SAFETY: the block holds `len` initialised items after its header
        // (none behind the static one, where the pointer is still non-null
        // and aligned), and they live as long as `self`.
        unsafe { std::slice::from_raw_parts(Self::items_of(self.header), self.len()) }
    }

    /// A block holding the `len` items at `src`, moved into it.
    ///
    /// # Safety
    ///
    /// `src` points at `len` initialised items that the caller gives up: it
    /// must neither use nor drop them afterwards (trivially true of a `Copy`
    /// type).
    unsafe fn moved_from(src: *const T, len: usize) -> Self {
        let mut block = Builder::new(len);
        // SAFETY: the caller guarantees `len` readable items at `src`; the
        // new block has room for `len` and cannot overlap them.
        unsafe { ptr::copy_nonoverlapping(src, block.next(), len) };
        block.filled = len;
        block.finish()
    }

    /// A block of `len` items, each produced by `next`, or the first error
    /// `next` returns (the items already produced are dropped, the block is
    /// freed).
    fn try_from_fn<E>(len: usize, mut next: impl FnMut() -> Result<T, E>) -> Result<Self, E> {
        let mut block = Builder::new(len);
        for _ in 0..len {
            block.push(next()?);
        }
        Ok(block.finish())
    }

    /// The items, moved into a `Vec` of exactly their number.
    fn into_vec(self) -> Vec<T> {
        let this = ManuallyDrop::new(self);
        Builder::<T> {
            header: this.header,
            filled: this.len(),
            items: PhantomData,
        }
        .into_vec()
    }
}

impl<T: Copy> Thin<T> {
    /// A block holding a copy of `items`: one allocation and one `memcpy`.
    fn copied(items: &[T]) -> Self {
        // SAFETY: `items` is `len` initialised `Copy` values, which are not
        // given up by being copied.
        unsafe { Self::moved_from(items.as_ptr(), items.len()) }
    }
}

impl<T> Default for Thin<T> {
    fn default() -> Self {
        Builder::new(0).finish()
    }
}

impl<T> Drop for Thin<T> {
    fn drop(&mut self) {
        drop(Builder::<T> {
            header: self.header,
            filled: self.len(),
            items: PhantomData,
        });
    }
}

impl<T: Clone> Clone for Thin<T> {
    fn clone(&self) -> Self {
        self.as_slice().iter().cloned().collect()
    }
}

impl<T> From<Vec<T>> for Thin<T> {
    fn from(mut vec: Vec<T>) -> Self {
        // SAFETY: the `Vec`'s `len` items are initialised; `set_len(0)` gives
        // them up before the `Vec` frees its buffer.
        unsafe {
            let block = Self::moved_from(vec.as_ptr(), vec.len());
            vec.set_len(0);
            block
        }
    }
}

impl<T, const N: usize> From<[T; N]> for Thin<T> {
    /// One allocation and one copy of the array into it: `args![a, b, c]`
    /// builds its list here, and going through an iterator instead made it
    /// about five times slower.
    fn from(array: [T; N]) -> Self {
        let array = ManuallyDrop::new(array);
        // SAFETY: the array's `N` items are initialised, and `ManuallyDrop`
        // gives them up.
        unsafe { Self::moved_from(array.as_ptr(), N) }
    }
}

impl<T> FromIterator<T> for Thin<T> {
    /// Straight into the block when the iterator states its exact length,
    /// through a `Vec` otherwise — or when it turns out to have lied.
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut items = items.into_iter();
        let (len, upper) = items.size_hint();
        if upper != Some(len) {
            return items.collect::<Vec<T>>().into();
        }
        let mut block = Builder::new(len);
        block.extend(items.by_ref().take(len));
        match items.next() {
            None if block.filled == len => block.finish(),
            extra => {
                let mut vec = block.into_vec();
                vec.extend(extra);
                vec.extend(items);
                vec.into()
            }
        }
    }
}

/// A block being written: its length is fixed when it is allocated, and its
/// first `filled` items are initialised.  Dropping it drops those and frees
/// the block.
struct Builder<T> {
    header: NonNull<Header>,
    filled: usize,
    items: PhantomData<T>,
}

impl<T> Builder<T> {
    /// An unwritten block of `len` items; the static header when `len` is 0.
    fn new(len: usize) -> Self {
        let header = if len == 0 {
            NonNull::from(&EMPTY)
        } else {
            let layout = Thin::<T>::layout(len);
            // SAFETY: the layout is at least a header's size, never zero.
            let raw = unsafe { alloc::alloc(layout) };
            let Some(header) = NonNull::new(raw.cast::<Header>()) else {
                alloc::handle_alloc_error(layout)
            };
            // SAFETY: the allocation is aligned for a `Header` and starts
            // with room for one.
            unsafe { header.as_ptr().write(Header { len }) };
            header
        };
        Self {
            header,
            filled: 0,
            items: PhantomData,
        }
    }

    fn len(&self) -> usize {
        // SAFETY: the header was written by `new`, or is the static one.
        unsafe { self.header.as_ref().len }
    }

    /// Where the next item goes.
    fn next(&self) -> *mut T {
        // SAFETY: `filled <= len`, so this is at most one past the block's
        // last item.
        unsafe { Thin::<T>::items_of(self.header).add(self.filled) }
    }

    fn push(&mut self, item: T) {
        assert!(self.filled < self.len(), "block is full");
        // SAFETY: `filled < len`, so the slot is inside the block, and it
        // holds no item yet.
        unsafe { self.next().write(item) };
        self.filled += 1;
    }

    fn finish(self) -> Thin<T> {
        assert_eq!(self.filled, self.len(), "block is not full");
        let this = ManuallyDrop::new(self);
        Thin {
            header: this.header,
            items: PhantomData,
        }
    }

    /// The items written so far, moved into a `Vec` of exactly their
    /// number; the block is freed.
    fn into_vec(mut self) -> Vec<T> {
        let mut vec = Vec::with_capacity(self.filled);
        // SAFETY: the first `filled` items are initialised and the `Vec` has
        // room for them.  They are moved, so the builder then owns none and
        // its drop frees only the block.
        unsafe {
            ptr::copy_nonoverlapping(
                Thin::<T>::items_of(self.header),
                vec.as_mut_ptr(),
                self.filled,
            );
            vec.set_len(self.filled);
        }
        self.filled = 0;
        vec
    }
}

impl<T> Extend<T> for Builder<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        items.into_iter().for_each(|item| self.push(item));
    }
}

impl<T> Drop for Builder<T> {
    fn drop(&mut self) {
        let len = self.len();
        // SAFETY: the first `filled` items are initialised and owned here;
        // a block of `len > 0` was allocated by `new` with `layout(len)`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                Thin::<T>::items_of(self.header),
                self.filled,
            ));
            if len > 0 {
                alloc::dealloc(self.header.as_ptr().cast(), Thin::<T>::layout(len));
            }
        }
    }
}

/// The `Default`, `PartialEq` and `Debug` of a newtype are those of the
/// slice it dereferences to, so `{:?}` prints exactly what the box printed.
macro_rules! slice_like {
    ($($name:ident),*) => {$(
        impl Default for $name {
            fn default() -> Self {
                Self(Thin::default())
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                **self == **other
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&**self, f)
            }
        }
    )*};
}

slice_like!(ThinStr, ThinBytes, ThinList);

/// A UTF-8 string in one block of its length plus eight bytes: what
/// [`Value::Str`] holds.  Empty, it allocates nothing.
pub struct ThinStr(Thin<u8>);

impl Deref for ThinStr {
    type Target = str;

    fn deref(&self) -> &str {
        // SAFETY: every constructor copies its bytes from a `str`.
        unsafe { std::str::from_utf8_unchecked(self.0.as_slice()) }
    }
}

impl Clone for ThinStr {
    fn clone(&self) -> Self {
        Self(Thin::copied(self.0.as_slice()))
    }
}

impl From<&str> for ThinStr {
    fn from(s: &str) -> Self {
        Self(Thin::copied(s.as_bytes()))
    }
}

impl From<String> for ThinStr {
    fn from(s: String) -> Self {
        s.as_str().into()
    }
}

impl From<Box<str>> for ThinStr {
    fn from(s: Box<str>) -> Self {
        (*s).into()
    }
}

impl From<Cow<'_, str>> for ThinStr {
    fn from(s: Cow<'_, str>) -> Self {
        (*s).into()
    }
}

impl FromIterator<char> for ThinStr {
    fn from_iter<I: IntoIterator<Item = char>>(chars: I) -> Self {
        chars.into_iter().collect::<String>().into()
    }
}

/// A byte string in one block of its length plus eight bytes: what
/// [`Value::Bytes`] holds.  Empty, it allocates nothing.
pub struct ThinBytes(Thin<u8>);

impl Deref for ThinBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl Clone for ThinBytes {
    fn clone(&self) -> Self {
        Self(Thin::copied(self))
    }
}

impl From<&[u8]> for ThinBytes {
    fn from(bytes: &[u8]) -> Self {
        Self(Thin::copied(bytes))
    }
}

impl From<Vec<u8>> for ThinBytes {
    fn from(bytes: Vec<u8>) -> Self {
        bytes.as_slice().into()
    }
}

impl From<Box<[u8]>> for ThinBytes {
    fn from(bytes: Box<[u8]>) -> Self {
        (*bytes).into()
    }
}

impl From<Cow<'_, [u8]>> for ThinBytes {
    fn from(bytes: Cow<'_, [u8]>) -> Self {
        (*bytes).into()
    }
}

impl<const N: usize> From<[u8; N]> for ThinBytes {
    fn from(bytes: [u8; N]) -> Self {
        bytes.as_slice().into()
    }
}

impl FromIterator<u8> for ThinBytes {
    fn from_iter<I: IntoIterator<Item = u8>>(bytes: I) -> Self {
        Self(bytes.into_iter().collect())
    }
}

/// A list of values in one block of `8 + 16 × len` bytes: what
/// [`Value::List`] holds, and what an [`Args`](crate::Args) of two or more
/// values holds.  Empty, it allocates nothing.
#[derive(Clone)]
pub struct ThinList(Thin<Value>);

impl ThinList {
    /// The values, moved into a `Vec` of exactly their number.
    pub fn into_vec(self) -> Vec<Value> {
        self.0.into_vec()
    }

    /// A list of `len` values, each produced by `next`, or the first error
    /// `next` returns; the values produced before it are dropped and the
    /// block is freed.  The decoder reads a list straight into its block
    /// with this.
    pub(crate) fn try_from_fn<E>(
        len: usize,
        next: impl FnMut() -> Result<Value, E>,
    ) -> Result<Self, E> {
        Thin::try_from_fn(len, next).map(Self)
    }
}

impl Deref for ThinList {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.0.as_slice()
    }
}

impl From<Vec<Value>> for ThinList {
    fn from(values: Vec<Value>) -> Self {
        Self(values.into())
    }
}

impl From<Box<[Value]>> for ThinList {
    fn from(values: Box<[Value]>) -> Self {
        values.into_vec().into()
    }
}

impl From<&[Value]> for ThinList {
    fn from(values: &[Value]) -> Self {
        values.iter().cloned().collect()
    }
}

impl From<Cow<'_, [Value]>> for ThinList {
    fn from(values: Cow<'_, [Value]>) -> Self {
        values.into_owned().into()
    }
}

impl<const N: usize> From<[Value; N]> for ThinList {
    fn from(values: [Value; N]) -> Self {
        Self(values.into())
    }
}

impl FromIterator<Value> for ThinList {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Self(values.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// `n` clones of one `Rc`, so that its count says how many are alive.
    fn tokens(token: &Rc<()>, n: usize) -> Vec<Rc<()>> {
        (0..n).map(|_| Rc::clone(token)).collect()
    }

    fn is_static<T>(thin: &Thin<T>) -> bool {
        ptr::eq(thin.header.as_ptr(), &EMPTY)
    }

    #[test]
    fn a_block_is_its_length_and_then_its_items() {
        assert_eq!(mem::size_of::<Thin<Value>>(), 8);
        assert_eq!(mem::size_of::<Option<ThinList>>(), 8);
        assert_eq!(Thin::<u8>::layout(4).size(), 12);
        assert_eq!(Thin::<Value>::layout(3).size(), 56);
        assert_eq!(Thin::<Value>::layout(1).align(), 8);
    }

    #[test]
    fn an_empty_thin_is_the_static_header_however_it_is_built() {
        let empties: [Thin<Rc<()>>; 5] = [
            Thin::default(),
            Vec::new().into(),
            [].into(),
            std::iter::empty().collect(),
            Vec::new().into_iter().filter(|_| true).collect(),
        ];
        for empty in &empties {
            assert!(is_static(empty));
            assert!(empty.as_slice().is_empty());
            assert!(is_static(&empty.clone()));
        }
        assert!(is_static(&Thin::<u8>::copied(&[])));
        assert!(is_static(&ThinStr::from("").0));
        assert!(ThinList::default().into_vec().is_empty());
    }

    #[test]
    fn every_constructor_keeps_the_items_in_order() {
        let items: Vec<i64> = (0..9).collect();
        let built: [Thin<i64>; 6] = [
            items.clone().into(),
            <[i64; 9]>::try_from(items.clone()).unwrap().into(),
            items.iter().copied().collect(),
            items.iter().copied().filter(|_| true).collect(),
            Thin::copied(&items),
            Thin::try_from_fn::<()>(9, {
                let mut next = items.iter().copied();
                move || Ok(next.next().unwrap())
            })
            .unwrap(),
        ];
        for thin in built {
            assert_eq!(thin.as_slice(), items.as_slice());
            assert_eq!(thin.clone().as_slice(), items.as_slice());
            assert_eq!(thin.into_vec(), items);
        }
    }

    #[test]
    fn every_item_is_dropped_exactly_once() {
        let token = Rc::new(());
        let thin: Thin<Rc<()>> = tokens(&token, 4).into();
        let copy = thin.clone();
        assert_eq!(Rc::strong_count(&token), 9);
        drop(thin);
        assert_eq!(Rc::strong_count(&token), 5);
        let moved = copy.into_vec();
        assert_eq!((moved.len(), Rc::strong_count(&token)), (4, 5));
        drop(moved);
        let array: Thin<Rc<()>> = [Rc::clone(&token), Rc::clone(&token)].into();
        assert_eq!(Rc::strong_count(&token), 3);
        drop(array);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn a_fill_that_stops_halfway_drops_what_it_wrote() {
        let token = Rc::new(());
        let mut produced = 0;
        let failed = Thin::try_from_fn(5, || {
            produced += 1;
            match produced {
                4 => Err("the fourth item"),
                _ => Ok(Rc::clone(&token)),
            }
        });
        assert_eq!(failed.err(), Some("the fourth item"));
        assert_eq!(Rc::strong_count(&token), 1);

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (0..5)
                .map(|i| match i {
                    3 => std::panic::resume_unwind(Box::new("the fourth item")),
                    _ => Rc::clone(&token),
                })
                .collect::<Thin<_>>()
        }));
        assert!(panicked.is_err());
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn an_iterator_that_misstates_its_length_is_collected_whole() {
        /// Claims `claimed` items, yields `actual` of them.
        struct Liar(usize, std::ops::Range<u8>);
        impl Iterator for Liar {
            type Item = u8;
            fn next(&mut self) -> Option<u8> {
                self.1.next()
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (self.0, Some(self.0))
            }
        }
        for (claimed, actual) in [(2, 0..5), (5, 0..2), (0, 0..3), (3, 0..0)] {
            let thin: Thin<u8> = Liar(claimed, actual.clone()).collect();
            assert_eq!(thin.into_vec(), actual.collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "block is full")]
    fn a_builder_refuses_an_item_past_its_length() {
        let mut block = Builder::new(1);
        block.push(1u8);
        block.push(2u8);
    }

    #[test]
    fn the_newtypes_print_compare_and_convert_like_their_slices() {
        let s = ThinStr::from("gold");
        assert_eq!(&*s, "gold");
        assert_eq!(format!("{s:?}"), format!("{:?}", "gold"));
        for same in [
            ThinStr::from(String::from("gold")),
            ThinStr::from(Box::<str>::from("gold")),
            ThinStr::from(Cow::Borrowed("gold")),
            "gold".chars().collect(),
            s.clone(),
        ] {
            assert_eq!(same, s);
        }
        assert_ne!(ThinStr::from("gild"), s);

        let bytes = [0u8, 1, 255];
        let b = ThinBytes::from(bytes);
        assert_eq!(&*b, &bytes);
        assert_eq!(format!("{b:?}"), format!("{:?}", &bytes[..]));
        for same in [
            ThinBytes::from(&bytes[..]),
            ThinBytes::from(bytes.to_vec()),
            ThinBytes::from(Box::<[u8]>::from(&bytes[..])),
            ThinBytes::from(Cow::Borrowed(&bytes[..])),
            bytes.iter().copied().collect(),
            b.clone(),
        ] {
            assert_eq!(same, b);
        }

        let values = vec![Value::Int(1), Value::from("two"), Value::Null];
        let l = ThinList::from(values.clone());
        assert_eq!(&*l, values.as_slice());
        assert_eq!(format!("{l:?}"), format!("{:?}", values.as_slice()));
        for same in [
            ThinList::from(values.as_slice()),
            ThinList::from(values.clone().into_boxed_slice()),
            ThinList::from(Cow::Borrowed(values.as_slice())),
            ThinList::from([Value::Int(1), Value::from("two"), Value::Null]),
            values.iter().cloned().collect(),
            l.clone(),
        ] {
            assert_eq!(same, l);
        }
        assert_eq!(l.into_vec(), values);
    }
}
